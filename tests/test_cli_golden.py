"""Pinned output bytes of seeded CLI invocations.

Each case runs ``dhbox`` in a fresh directory (so ``--out`` names and the
``wrote ...`` line are stable) and hashes stdout followed by the bytes
of the ``--out`` file, if any.  A change that alters what a command
prints or writes, or its exit code, fails here.  ``grover`` is pinned
too: its ``success_probability`` is t*t of the two-value Grover state,
whose means ``_two_valued_sum`` adds in Python floats, and its measured
outcome is a seeded draw like the other commands' samples.
"""

import hashlib

import pytest

from dhbox.cli import main

# Digests recorded before the per-command CLI options were introduced, the
# grover ones on the two-value Grover state.
GOLDEN = {
    "secret --p 101 --seed 7 --algo dlog": (0, "425f45e39ed5d1a60c8b4234b5f0abd3625bb0f73c195ce819feb7941b1b1971"),
    "secret --p 101 --seed 7 --algo dlog --format json": (0, "4f6e6c2becc41e9b1c1b56c44390b24f7f358c0229287b4ae6296fee0f869e02"),
    "secret --p 101 --seed 7 --algo dlog --out out.csv": (0, "aa8604e49a4ebebb79615040e4c2b543691ba8be2c024e8f1c5ac899e3ba97b6"),
    "secret --p 101 --seed 7 --algo dlog --format json --out out.json": (0, "b5819e74d600e74d6abafb7c316bc4926e41833f01a326e0b257632c8b919368"),
    "secret --p 101 --seed 7 --algo cdh": (0, "cc804c577499adc1ee2fd139377396fbe86d905bde012059c971236322cf170e"),
    "secret --p 101 --seed 7 --algo cdh --format json": (0, "eb697d5d81249d196a5ac0a8b801e5749712b27c5b2e602d14e2fc2b6823cf6e"),
    "secret --p 101 --seed 7 --algo cdh --out out.csv": (0, "f341e6dc0a5bb4d1cb11a0e0decd3c7c21fd33eee49890d9dfd109fe9d46e5b3"),
    "secret --p 101 --seed 7 --algo cdh --format json --out out.json": (0, "a3882c628bcfb9751bd6c2e36b3d356e1cbf826e8d0b6d386cac5f10235a1cd7"),
    "secret --p 101 --seed 7 --algo dlog-random": (0, "0d515d4eae21d36b9602964e6558444561ba9f858b1e99f829aea774e8bb9c0e"),
    "secret --p 101 --seed 7 --algo dlog-random --format json": (0, "da3bfd52f3da1af42b92cb52f6aa5d6bdbcc66081267f38586dd1bf9828015a6"),
    "secret --p 101 --seed 7 --algo dlog-random --out out.csv": (0, "16e8abdf5f006884b3e14a005c7be52030c8db8f589d43e81e36f0eccaf9791f"),
    "secret --p 101 --seed 7 --algo dlog-random --format json --out out.json": (0, "654a23ecf6c12e6c7ec3fcab61e0267619a52ee830f02b6ee963c5b3093ba694"),
    "secret --p 101 --seed 7 --algo cdh-random": (0, "f31630c9ac2f3d566326538ff62e296c804f34627c825ab5756c48f3d468b4e9"),
    "secret --p 101 --seed 7 --algo cdh-random --format json": (0, "706464facfefc19d8e43fc69f5e7860140b769b25a9513ccd81f8ea8807c5bae"),
    "secret --p 101 --seed 7 --algo cdh-random --out out.csv": (0, "70e5fff091df35c21c3584da51bb0d942991271adb3ea9431e93a7ce2326709a"),
    "secret --p 101 --seed 7 --algo cdh-random --format json --out out.json": (0, "d23de173ed7bbe08ac6cffe97f93e3285d323c7f1b63baa5d44914909a5b66a3"),
    "secret --p 101 --seed 7 --algo brute": (0, "1640ce3b5e6b8c6077438439500b9fc4def0c0f3e2e810bef25579a37ef89525"),
    "secret --p 101 --seed 7 --algo brute --format json": (0, "a1eaab48f4b4e89066ab35f53239a9bfbea02bff6890d562a76e8597a6f6c6e8"),
    "secret --p 101 --seed 7 --algo brute --out out.csv": (0, "f8f4bad2f9c792b19638f2aab1f4cdfa942734f195998eea60f34a4ab83d9b70"),
    "secret --p 101 --seed 7 --algo brute --format json --out out.json": (0, "790060eb0233831611c1770c796f4a0b4db97729f74cc07e56acd86bd50b1f84"),
    "secret --p 101 --seed 7 --algo brute-random": (0, "057c96919d932c877f27649fa3b23ca2e869931c200bf2e647d0b386e0fa1833"),
    "secret --p 101 --seed 7 --algo brute-random --format json": (0, "6de35d7bd4e4aff875a0537a380c1d616febd9de60af2d3f941d9f27ef67bf16"),
    "secret --p 101 --seed 7 --algo brute-random --out out.csv": (0, "3191512ec6412b0465d55c0724ca024ac8f0fe2bf41aaf5b2154946bdcb376a9"),
    "secret --p 101 --seed 7 --algo brute-random --format json --out out.json": (0, "04625b45fe08f841707dca5e57786b7bf2fe170a65000adc0220ca1152c56a67"),
    "ddh --p 5 --secret 2 --g 1,0 --h 0,1 --k 0,1 --l 4,0": (0, "0064e2c41b285bd97bfdc0b89c5bde0662e8865d98c6e9549155deb017f4da01"),
    "ddh --p 5 --secret 2 --g 1,0 --h 0,1 --k 0,1 --l 3,0": (0, "63bbaa4cc99a56fd3378576e2e5e3846dcbe2c6f97e9adbe29e50d0588e48434"),
    "lift --p 7 --seed 3 --trials 10": (0, "c1b7637bde1d696c70646855d982b1b5558681e30c0d296f7d2d30bb649e0890"),
    "lift --p 11": (0, "15cf02d251e34a5ad21405c1de671c12222ab2d05de39c598d27cc30d248f11f"),
    "embed --p 11 --q 23 --seed 5": (0, "1ee049936613ed5aaee9b16e675acbc43b92f865fd839abe2a1d53f4713a256c"),
    "embed --p 11 --q 23 --a 3 --b 4 --c 1": (0, "a4c3bc18668022fb6082a2aa2d50efb8c7ab0ed0e8ecd1706a6603a43c7c7200"),
    "grover --p 101 --seed 7": (0, "11226fa91c636f9bb17857a19587b6891e52009d4a1505d97afa2c6189125282"),
    "grover --p 65537 --seed 1 --out out.json": (0, "65d161b8958c8890f4e82aeb61b64a34cd498422752b0b4c68d9d600c77df663"),
    "adversary --p 5": (0, "bee08612fbef23ea01f7faafb2b9f9de917aff85742871442a8bed36b76a6b6b"),
    "adversary --p 7 --out out.json": (0, "49e7451b1f65028063a6cb28653bbd459f1ccd845c6a724f2608c5763feee652"),
    "adversary --p 37": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "adversary --p 31 --force": (0, "a2b819d27f09be272553214edb6c631010ae650a1c22e7095f412b046f9e51d5"),
    "adversary --p 101 --force --out out.json": (0, "0575e852f23b46d5189c8766b6105f00e28916bb9af4fbde42bdc4d99136e248"),
    "scaling --p 11,13 --trials 100 --seed 2": (0, "a46019df39bd9cf43ef06d367be08fa157384c90e85f808c2c24196ddc1f2889"),
    "scaling --p 11,13 --trials 100 --seed 2 --format json": (0, "65d68e2990bb591bdc662556c0d4bc1762e62cd74394700cbb8da3bd735af8d2"),
    "scaling --p 11,13 --trials 100 --seed 2 --out out.csv": (0, "0c296e9e1d67a61c9020bc8069cc31e163225edc5c52723b3124fe83e42c1e8b"),
    "scaling --p 11,13 --trials 100 --seed 2 --format json --out out.json": (0, "b72b3543b91c2b2120045796a67a670ab5bda653d7d267553955bcb8c0d52842"),
    "reductions --p 13 --trials 150 --seed 6": (0, "d68af2d27651becdb9c0fbe5d58e76193a69aaa262ee52afc233c0a062d9dcff"),
    "reductions --p 13 --trials 150 --seed 6 --format json": (0, "87d6ad8becc9ef145ed62dff355a8b3d1707d640d1975fa65aace78fd6fdd859"),
    "reductions --p 13 --trials 150 --seed 6 --out out.csv": (0, "76332d5aa5908023b8be064b9c055f5b17b73188fdf4c36220881b337644d07f"),
    "reductions --p 13 --trials 150 --seed 6 --format json --out out.json": (0, "9f89e9879fb8473e2a4b01aef2bcfb29d2b74b136fbf449ac64f99aa8368a907"),
    "level2-counts --p 11 --trials 100 --seed 6": (0, "09e1feaf6c094c45efebc39bb2dadf243703ad67df62aabdca7779c4269c6b83"),
    "level2-counts --p 11 --trials 100 --seed 6 --out out.csv": (0, "180e0a97b2f0c71dc17990f936a7c105bdc9c80c4a25587cf7e658d449cae48c"),
    "level2-counts --p 11 --trials 100 --seed 6 --format json --out out.json": (0, "f99f539e4b08c83fabf14606fda2d439c9a410b965cdc1821153b6ac82987dc9"),
    "level2-counts --p 7 --trials 300 --seed 1": (0, "14dfe71cd86d60f416c314dd71aae799408f5cbdf2478ee37f77f66ade01e3d2"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_bytes_pinned(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = command.split()
    rc = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode())
    if "--out" in argv:
        digest.update((tmp_path / argv[argv.index("--out") + 1]).read_bytes())
    assert (rc, digest.hexdigest()) == GOLDEN[command]
