"""Golden digests: seeded CLI outputs stay byte-identical across refactors.

Criterion 14 reruns one build twice, so it cannot see a random stream drift
between two versions of the code.  These digests pin the SHA-256 of every
digested output file (``manifest.json`` carries timestamps and is left out)
at fixed seeds and small sizes, and of the lines each case prints, with its
output directory written as ``<out>``.  A change that alters a stream or a file
format on purpose updates the digests in the same change and says why in
``CHANGES.md``.

Regenerate the table with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from surplus_lab.cli import EXIT_OK, main

CASES = {
    "estimate-radius-s1": ["estimate", "--target", "radius", "--n", "40", "--s", "1",
                           "--reps", "60", "--seed", "11"],
    "estimate-radius-s3": ["estimate", "--target", "radius", "--n", "40", "--s", "3",
                           "--reps", "40", "--seed", "12"],
    "estimate-two-point-s1": ["estimate", "--target", "two-point", "--n", "40", "--s", "1",
                              "--reps", "60", "--seed", "13"],
    "estimate-two-point-s3": ["estimate", "--target", "two-point", "--n", "40", "--s", "3",
                              "--reps", "60", "--seed", "14"],
    "estimate-radius-n1000-s3": ["estimate", "--target", "radius", "--n", "1000", "--s", "3",
                                 "--reps", "20", "--seed", "15"],
    "estimate-profile": ["estimate", "--target", "profile", "--n", "60", "--s", "1",
                         "--reps", "60", "--seed", "2"],
    "estimate-profile-s3": ["estimate", "--target", "profile", "--n", "60", "--s", "3",
                            "--reps", "60", "--seed", "3"],
    "estimate-um-radius": ["estimate", "--target", "radius", "--model", "um", "--n", "30",
                           "--g", "1", "--reps", "40", "--seed", "4"],
    "estimate-um-two-point": ["estimate", "--target", "two-point", "--model", "um",
                              "--n", "25", "--g", "1", "--reps", "40", "--seed", "6"],
    "verify-jeulin": ["verify", "--suite", "jeulin", "--n", "64", "--reps", "400",
                      "--seed", "7", "--threshold", "0.5"],
    "verify-jeulin-n2000": ["verify", "--suite", "jeulin", "--n", "2000", "--reps", "50",
                            "--seed", "8", "--threshold", "0.5"],
    "verify-lemma3": ["verify", "--suite", "lemma3", "--s", "2", "--reps", "20", "--seed", "33"],
    "verify-sg": ["verify", "--suite", "sg"],
    "sample-excursion": ["sample", "excursion", "--n", "3", "--reps", "24", "--seed", "41"],
    "sample-tree": ["sample", "tree", "--n", "30", "--reps", "8", "--seed", "42"],
    "sample-map": ["sample", "map", "--n", "50", "--s", "2", "--reps", "3", "--seed", "31"],
    "sample-map-n12": ["sample", "map", "--n", "12", "--s", "2", "--reps", "4",
                       "--seed", "33"],
    "sample-map-s3": ["sample", "map", "--n", "12", "--s", "3", "--reps", "4", "--seed", "35"],
    "sample-graph": ["sample", "graph", "--n", "8", "--s", "2", "--reps", "3", "--seed", "32"],
    "sample-graph-n60": ["sample", "graph", "--n", "60", "--s", "3", "--reps", "4",
                         "--seed", "34"],
    "sample-crum": ["sample", "crum", "--n", "12", "--g", "1", "--reps", "3", "--seed", "21"],
    "sample-crum-n60": ["sample", "crum", "--n", "60", "--g", "1", "--reps", "6", "--seed", "22"],
    "sample-crum-g2": ["sample", "crum", "--n", "8", "--g", "2", "--reps", "3", "--seed", "23"],
    "enumerate-m": ["enumerate", "--family", "m", "--n", "3", "--s", "1"],
    "enumerate-um": ["enumerate", "--family", "um", "--n", "4", "--g", "1"],
    "invert": ["invert", "--tree", "((()()))", "--corners", "3,5"],
    "selftest": ["selftest"],
    "counts-asymptotics": ["counts", "--asymptotics"],
}

DIGESTS = {
    'estimate-radius-s1': {
        'estimate_radius.csv':
            '839c56ede831dd87646675b88b1f62f707f475a9381722b92586f4227fdaa2e5',
        'summary.json':
            '61b04f564c518a076c227d54065ba968034c5c29b93d55810a7c949b2a5baf49',
    },
    'estimate-radius-s3': {
        'estimate_radius.csv':
            '11ca162872a0c05463f3dce211b72f6b6c519b795733fc3847556c8bd447cedf',
        'summary.json':
            '5d65608a389c5266b83f416c37aab82c075bd037aaa37c57e92f3e0cfb242c25',
    },
    'estimate-radius-n1000-s3': {
        'estimate_radius.csv':
            '964a5d521a45883e0eca8ca0a72928f39bec6df112e4ecab13c848e803473e93',
        'summary.json':
            '7689048aa269ad1303a94bb14f76233565b3460426a97a3e8ef239b97472449b',
    },
    'estimate-two-point-s1': {
        'estimate_two_point.csv':
            'c6f017b5e64da676476b5e4bed5bc39ea3ef6b35de610b3eee2e6044d37116c6',
        'summary.json':
            'a52f15284e19c57e3d63608b9fd4ae2a5bb73423fd236706ecb1e7c7dec5bd85',
    },
    'estimate-two-point-s3': {
        'estimate_two_point.csv':
            '27bce501c763e7dc470fdb82a0f287399ca55ddc172eaa01035e17a0d748ec35',
        'summary.json':
            '56671dd382a961e6e7164cf0fc09bf06c7e823b68c22add2c9d44a44573971cb',
    },
    'estimate-profile': {
        'estimate_profile.csv':
            'ee657d664fbe392a4c316b4d7c98ab243a919be444f4538055b014671dc9f811',
        'summary.json':
            '9df2e2b1c651e81cae07d4c0e7b792775a583f09d239cf162a1d792409ac40dd',
    },
    'estimate-profile-s3': {
        'estimate_profile.csv':
            '8bf4561416032882d3c202187f4fd2c8adb478c642678eb76dadbbd920c48a0d',
        'summary.json':
            '4320cf32873eba36da426b42e2e2191ca0d7272a7ee24d4c38a63c3deeeb616f',
    },
    'estimate-um-radius': {
        'estimate_radius.csv':
            '77c0d99b2445aa928594993610b5a05ea23c8d64173c0bfe3d970a18d6160bda',
        'summary.json':
            '74590140d876f4c1f6f6a0e7b493dde8dd990b8aa1dc717b98474ef6532a30ea',
    },
    'estimate-um-two-point': {
        'estimate_two_point.csv':
            'dda449305fa976e7e4f9c17c9326a177662d5ee7bb4c2415f2abcd1c78d5ec76',
        'summary.json':
            '99ff52624099156a3fc04f28cd550574bce9a0cf3c46f68fde96fc19d6ff69ad',
    },
    'verify-jeulin': {
        'verify_jeulin.csv':
            '1e57adf41a21f8337ff83797f4dc363a0d15921a7f9f44fc63baf05fa554775d',
    },
    'verify-jeulin-n2000': {
        'verify_jeulin.csv':
            '7d3256444924f0a2a0ae67e2093788fa778d9c52a4e5dac0cddb62158334474a',
    },
    'verify-lemma3': {
        'verify_lemma3.csv':
            '5cfb0fc5c007dfa3d5a7a17772fa43214e74f5246784920fa7b5df44cf87717b',
    },
    'verify-sg': {
        'verify_sg.csv':
            '3f53495fb8e85c4249f221d0524c83553ea6d3f7311adfee5aa25a89b2dab6f7',
    },
    'sample-excursion': {
        'excursions.txt':
            '6eb4bdb541e69931430c2ed5187d8707577e87696a0cee9ae971ff9f64085899',
    },
    'sample-tree': {
        'trees.txt':
            'b8f820e16b5ed8af8707ea71c09d0a402148f3cacbf668e7d78c2569d8eb9140',
    },
    'sample-map': {
        'map_0.json':
            'aea3b621e85a382d1dad92b11ba6ebd60d2b682854b111c01bb1a5e8611c7706',
        'map_1.json':
            '0b95acdabea7c5e735ca5dc87d5dd90cdd4fb810af32d0028ef0aae71a742f09',
        'map_2.json':
            '2be3212160a41980799737e45c14268161b9e274220a812261bc06ee51f217dd',
        'map_weights.csv':
            'be9fd04b6bc986f0a967397a7c6b43dfcbcfd3944597d6da02eb4bb4c6e62553',
    },
    'sample-map-n12': {
        'map_0.json':
            'f6f9a2629f7fde2c74bc2712c5c9f195a881bed37fd8a83b8833b0628e094d14',
        'map_1.json':
            '9e8738151321523f68d4df8488b02c3cde735a50dd24a15bbcc9506fa5a03b2a',
        'map_2.json':
            '4f195d47a0352eefb6420fbb8b80bcf6282b88dafa0f2308469be67b37ade32e',
        'map_3.json':
            '9cc71af61f993d39d315418edcefa3a7030b5213375c9c765c581b4bf1ef5851',
        'map_weights.csv':
            '10736d279e73d70d96a543dc6d03550799fc7d79848bd46276128b1b1247deb5',
    },
    'sample-map-s3': {
        'map_0.json':
            '23a7b7853d8dc9bf5e5c48fb51880cbc32a7bcb407522c1d8e253927cd72c7e1',
        'map_1.json':
            '6bed57c3720d4791aaf5ed3bbe379105735241b85d6235150b178c1a31b2b0cc',
        'map_2.json':
            'fe7eb8e1a2c855e1ce4cc5bb8c03686ebff3dcdfa9757b664bbb4eb4f7ade09b',
        'map_3.json':
            '7a923ab234745944f461f16066f6684e49ffa311c94177d1d074b5d59a15151f',
        'map_weights.csv':
            '36fa12190c131cdbe8b806b37b5f15ace94203c4660e8afe6f3eaf0c6bf8248b',
    },
    'sample-graph': {
        'graphs.csv':
            '78869ac7ae2a627b33d6d695f3e95f63b721c4fda1fde05ff61e8006467b9491',
    },
    'sample-graph-n60': {
        'graphs.csv':
            '92f037c67b80c74eceb5dda8e8e6d75f1252ebef2535587d522284aadbf55a7b',
    },
    'sample-crum': {
        'crum_0.json':
            'f53207ebb7867c1c7654dd69a70838cd7e0bcbc0f7b0993dec3558111c07b443',
        'crum_1.json':
            'ab7b5bcb9ef6ffd84cb01ec9bf9554709dfa7f6e24da7edc9a0262cbcbc7067f',
        'crum_2.json':
            '0ee1bd3cda36bc97880483bf18f06efb1a51f21c2d0d05dd15f9d096a1b0ea49',
        'crum_decorations.csv':
            'd11a9b94830af5fe5ea1ed305ad6a823bb1e83c6c74c83a31a74fbc5adfb4749',
    },
    'sample-crum-n60': {
        'crum_0.json':
            '9192b178dd94596cc1996359fe38b6d0a3bdf57a4e072cd0d64ffc1bd730f039',
        'crum_1.json':
            'bddfd4432209327a26317ceeb79453b9ed9e9f68f6c030d89e38658052530357',
        'crum_2.json':
            'f02ce04e540f6aebb3fab608a401b7338cac6a3ef83430cb9e7e502d27433c9d',
        'crum_3.json':
            '723a3a5da03c0474564937efcf41273946f88d526c3573680f16068c49b58bfa',
        'crum_4.json':
            'c7bd55b9342fc51bef8c933c21bc04ccb82bdc4cfd3ceee11b874b27caeed045',
        'crum_5.json':
            '8fb7e7cac04abc9d8ba02ce056c5e819e8802d87d965c526336f6bc492424922',
        'crum_decorations.csv':
            '639ce2e9d781168f53c0dcbe2a6f9383a53937c873ac765a718da81aa0e06205',
    },
    'sample-crum-g2': {
        'crum_0.json':
            'd0056bea6fbba6a7aca6915472063ea3854ff8a5fd75f88699df1abae503f3f6',
        'crum_1.json':
            'b2bc0756af7698ee23f728252609584999e1b52b0bf597d2d0f5fb2a49c4e5a1',
        'crum_2.json':
            '3f536d1927ec13d69ef35fc34bc84270a4a97c85ae09c092811b269e6424e5f9',
        'crum_decorations.csv':
            'a828db0a8273d15be190b804367a9c5185b6f38a6d8654693ec9454a5cc357b2',
    },
    'enumerate-m': {
        'family_m.txt':
            '29ee896be64d612f27c62a3d7142fa7210e41302b031bbced1f35fb674362531',
    },
    'enumerate-um': {
        'family_um.txt':
            '6baa74c3c86290f82b1b72c60775c22eb9f2cbd549c76b9c77feddb136f1983f',
    },
    'invert': {
        'map.json':
            '41a8c6a3612d62b709959fcd0f5ce871e6019c3fa103e4354c80153c55f340b5',
    },
    'selftest': {
        'selftest.csv':
            '2bbb5a3978c8cb441e64b94ca3c58e409ff550d471cd25c972064ec6edcbf815',
    },
    'counts-asymptotics': {
        'counts.csv':
            '788ebc9eea65490b4fe5b61b10e066418c156d814fa9d9504470787eaf871afa',
    },
}


STDOUT_DIGESTS = {
    'estimate-radius-s1':
        '7c294d1ba91c61d8df454342d889313f5db1c055b6f0d4350de21d746cc994d5',
    'estimate-radius-s3':
        '6dee202dc7339716d4334f6de9917ac483b20bed95fbc04dcf2687b87e9a3117',
    'estimate-two-point-s1':
        'b89b8792079f33e8d3b821cd4b195cc9165ba2e2735b6104528a5e2f4991f5b4',
    'estimate-two-point-s3':
        '4f6a27ac6e5124c2fd949d230426289ac8d2582c96da65a8157dcd9549ea5a2c',
    'estimate-radius-n1000-s3':
        'fa987ff3af2f6df3fcceb59d9fff4dc3db864c5d19aba24e2f416d7af38f9daa',
    'estimate-profile':
        'bcee7a45c46fa32284e697ae15790b57c6131e91a0801f1ad2a1ef4b5edafbe2',
    'estimate-profile-s3':
        'e230b9a4ea4fa3ef2d5a516f0a7ead9038c68310b1f2144bbfa0123665c24871',
    'estimate-um-radius':
        'def4070f138cc4e5cee15cacb3a0ea614f6f9cc0b1a21c3b5356c7032b305538',
    'estimate-um-two-point':
        '60d8db4bb297ab0ce418c612f38e5652fa9da7b3c5f7b036a528c0317598d9ba',
    'verify-jeulin':
        '91d3fffccdee89affbd53a9beefdcdc74578db53ae6e418fb74bb5bf2da042cb',
    'verify-jeulin-n2000':
        '29bf5de50bb05eb59a77e86168d282a5c44bf2043fd89d06a3defad8aefaa814',
    'verify-lemma3':
        '8ed0f907ae60f02e337b132fca3264a9848e67dd055a3f3ac2a45613712ec24b',
    'verify-sg':
        '5eb0fdf153884ee2e6061657ae51218ac6d506a7c0a1670ac8da5021a80992a7',
    'sample-excursion':
        '616dc411a51bea5575bf899c89b507e5e6973c97853d8986a3d2ce6234218057',
    'sample-tree':
        '616dc411a51bea5575bf899c89b507e5e6973c97853d8986a3d2ce6234218057',
    'sample-map':
        '5be3d34d75ef480dfa2c92f719e8e479bee16481dc04e697905e1fc08fab4208',
    'sample-map-n12':
        '4b3fa309a34b611fcd8c991271da49397a99b5586e117c7c305725070df876ae',
    'sample-map-s3':
        '4b3fa309a34b611fcd8c991271da49397a99b5586e117c7c305725070df876ae',
    'sample-graph':
        '616dc411a51bea5575bf899c89b507e5e6973c97853d8986a3d2ce6234218057',
    'sample-graph-n60':
        '616dc411a51bea5575bf899c89b507e5e6973c97853d8986a3d2ce6234218057',
    'sample-crum':
        '5be3d34d75ef480dfa2c92f719e8e479bee16481dc04e697905e1fc08fab4208',
    'sample-crum-n60':
        '0680e7310d76185effdf051ce622df7cbb63517cb08ef96f2cb847c8bb28aff7',
    'sample-crum-g2':
        '5be3d34d75ef480dfa2c92f719e8e479bee16481dc04e697905e1fc08fab4208',
    'enumerate-m':
        '230ec2d6976775f9f5971224cece7493947da0534a216bbccf4c1769febf87e9',
    'enumerate-um':
        '6ff7a2a68a93b2546f7f8c8d50d96544fc425111a78fd6028bb348a50ec06607',
    'invert':
        '0edfd53037229d3d46a0741550f4c8f51c6670aa6f4a76e762304c775d2743e6',
    'selftest':
        'aa96b31ac76667cdb3e7cdfdc495d7828c0be576f3f5e1b6161ff69580fadb9c',
    'counts-asymptotics':
        '982b7cac0dec23b5406c051b222adb2663562b33acc8d80142888ed565fe95e0',
}


def run_case(name: str, out: Path) -> tuple[dict[str, str], str]:
    """Run one case into ``out``; digest its output files and its printed lines."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert main(CASES[name] + ["--out", str(out)]) == EXIT_OK
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    return files, hashlib.sha256(printed.getvalue().replace(str(out), "<out>").encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    assert run_case(name, tmp_path / name) == (DIGESTS[name], STDOUT_DIGESTS[name])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: run_case(name, Path(tmp) / name) for name in CASES}
    print("DIGESTS = {")
    for name, (files, _) in table.items():
        print(f"    {name!r}: {{")
        for fname, digest in files.items():
            print(f"        {fname!r}:\n            {digest!r},")
        print("    },")
    print("}")
    print("STDOUT_DIGESTS = {")
    for name, (_, digest) in table.items():
        print(f"    {name!r}:\n        {digest!r},")
    print("}")
