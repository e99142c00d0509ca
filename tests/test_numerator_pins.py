"""Byte-level pins on derived numerators and interlacing polynomials.

The digests were recorded from the Fraction-only implementation of the step
(composition sums, certificate, node values and Lagrange interpolation all
over ``Fraction``).  Any rewrite of the step's arithmetic must reproduce the
same ``P`` and ``Q`` exactly, raw and normalized, and the same interlacing
polynomials.
"""

import hashlib

import pytest

from ratfunc_oracle import normalized_tower, ring
from zetatower.curves import artin_elliptic, artin_from_point_counts, hasse_traces
from zetatower.derived_engine import derive_step, derive_tower, normalize_level, special_values
from zetatower.invariants import interlacing_poly

N_MAX = 8
SECOND_STEPS = (2, 3)
BASES = [(q, a) for q in (2, 3, 4, 5) for a in hasse_traces(q)] + ["X2g2"]


def _base(key):
    if key == "X2g2":
        return artin_from_point_counts(2, 2, [3, 5])
    q, a = key
    return artin_elliptic(q, a)


def _line(*parts) -> bytes:
    return (";".join(str(p) for p in parts) + "\n").encode()


def _tower_digest(key, normalize: bool) -> str:
    """sha256 over (steps, Q, P) of every step n = 1..N_MAX and its second steps."""
    h = hashlib.sha256()
    for n in range(1, N_MAX + 1):
        first = (normalized_tower if normalize else derive_tower)(_base(key), (n,))[0]
        levels = [first]
        for m in SECOND_STEPS:
            nxt = derive_step(first, m)
            levels.append(normalize_level(nxt) if normalize else nxt)
        for z in levels:
            h.update(_line(z.steps, z.Q, *ring(z.P).coeffs))
    return h.hexdigest()


def _interlacing_digest(key) -> str:
    h = hashlib.sha256()
    sv = special_values(_base(key))
    for n in range(1, N_MAX + 1):
        h.update(_line(n, *ring(interlacing_poly(sv, n)).coeffs))
    return h.hexdigest()


PINS = {
    "(2, -2)": {
        "raw": "befdcf7f43269731eeef3064c00975382ee7fe25d4602e60818909d8963544fb",
        "normalized": "4fac578173853f7b157411ff5b932897bbb36a480a287d29feff8e715188717f",
        "interlacing": "07fb2f46ea4ee7617520c6bc4120b5dbd8e83b00eadd67c89474b3813f92b0d9",
    },
    "(2, -1)": {
        "raw": "56f5041444d2174b5b74c74bcc27cae89b24e49217889faeb4a81a2f2ee769ca",
        "normalized": "d2cb3106c5c7d280387db86ece8cc066a9c931bf07c32790a6d8be81a5249db5",
        "interlacing": "62c2db64cb0ccd07d61c49720c1f272c729e28716cb5d692cce1a77348019520",
    },
    "(2, 0)": {
        "raw": "705ac0496e4a92ca1ccc439b33fee37fc2984d8b701ae1a3e7bbb9d3fb28cd68",
        "normalized": "02ac81a21e1b55bc577e87fa141074cabc7a0f7d8306f3edd9c2ac4e05b0aca5",
        "interlacing": "f4b81ff67b214e73b246f17b531ee0fc5c275c7c05d879af5502c4b93a97caa7",
    },
    "(2, 1)": {
        "raw": "207ff270d5df5e261f67d601bfdf61359ff1d7eaf9bf7ae66540cc8442f6db0a",
        "normalized": "6d11817aad44a42a0a1bd2fa97cdfc5a1d4126893bc5c73c775fa05e5f702f6e",
        "interlacing": "b533ac388e1feb2b29a3f9bd81b720bd99e1e198a891ec1a4001163a1acca52c",
    },
    "(2, 2)": {
        "raw": "4fa1cf10777845f534baffe74fb47591f98c1b3a503653a21f607dbddb45096c",
        "normalized": "07b000e0f7e7be8571d77df22199d7de4bd808abc457c2ba7752348527489cbf",
        "interlacing": "1710f65e7af5796bec54badc1da33e8f746abf9245e71de2838a316c37f4a9af",
    },
    "(3, -3)": {
        "raw": "d2e09a428880f90c36427f7f5a7e14ae10e67d47e9eb00c0defa844284af76ac",
        "normalized": "43b896e757d287b9c62df6086b3f99d8fd8e5b0c7112e7372aedbeec86dd78a3",
        "interlacing": "7f8f4da10ce1f75c7260eed2a945a998ecb03db2d5bdb355ec3466c51ff20263",
    },
    "(3, -2)": {
        "raw": "48fae025a43ade4ea310a6cf47d10d25ee358093fb0331435a1527b4dd1d60de",
        "normalized": "e13317546c163a71d3eadb0f00a3701920aae3e272a1c170b3437c8023efc39c",
        "interlacing": "0db6228b57e1751a87a2e8e46739547aec0da67217789e2290a5752035ba84d0",
    },
    "(3, -1)": {
        "raw": "6cdabda4be2f1d47518a6c28b7d9c2cfaab7293ba102145b0837d542e3b528c6",
        "normalized": "53fdd4e631ef024431001b8516b86d0102d7c4384e3ab7c6743fad96cc1995c3",
        "interlacing": "5c05c4210024ca8e6a3c975ebec0f190f82af8c0ab3ebea4d6bc7ecf23d5ff0d",
    },
    "(3, 0)": {
        "raw": "fe7c3e070b9dbb1f44dd30d098bf3697b71b42399ef5fa409f12f2d56971d0f9",
        "normalized": "8c5803ea10b9c16397e6c10453e600786a4fffe9591d78245588b874c861d08b",
        "interlacing": "46ad028d429cf372d4f5619ab8667ecdc7d920836d0d608133ca42bc1df61f18",
    },
    "(3, 1)": {
        "raw": "26dd44265e451dafd463044e71dafdbb9bb70b707a1c524c8702931c09287ff3",
        "normalized": "45203d8d7ac22073b8eee311ada274217ed8f37f1e9cc2022707eb394f3a5665",
        "interlacing": "a24098ae3b2fec8c8f6b37bc9ceccee8db45607b0bbd14e1659d6e744ac401ac",
    },
    "(3, 2)": {
        "raw": "e75d3bbf30f5c296843c5343ff614993bf73863741fce6638c475090f6b42cfb",
        "normalized": "8f750b8d35ab957a22b298a8affe2190c214710ab77572b196ac53687d5481eb",
        "interlacing": "3f79fc6f45039c8d53562d3592d0ffca4ff1d2664c6942d1982f293c69ae652e",
    },
    "(3, 3)": {
        "raw": "a1024c425077bc4232fc0d7fbcbd66a7474c7962a96e7524d6100b6d89a261f2",
        "normalized": "cc1ae65f25807bf586086decda42d0d462288cca21b88635e3662c7315a3c443",
        "interlacing": "b850372d84e66b23c80946fed5526a4be489cec7b1567e1162ef8ec4963e447f",
    },
    "(4, -4)": {
        "raw": "00fd859987f0e197c6344b195b53624e8ac9d82ae76ed5d198ac16fe3d44600a",
        "normalized": "07138dfab30144550471fdf1ccea2044daaff8f7335c01a4b9e781c354c6e64b",
        "interlacing": "14383448f5fce36cf75763cb24a4e3fa6ef4c76181119413f8c0ee0038314852",
    },
    "(4, -3)": {
        "raw": "80d460a74010e483039627770b2cf68e7ced64a25c0def8da764b5a07f67f9c3",
        "normalized": "9c05ea7b2cca666d48384579b6124d912228bceec6d03691a50395e8159b355b",
        "interlacing": "a7e07ae271137ec25ce5ecba430f0950daf6d337a20518ec987e98d5a4adc685",
    },
    "(4, -2)": {
        "raw": "00f432d5d57480b6ebea6289e32bc0d2bac679747f463045e3f3fba358c8b015",
        "normalized": "b6c760d2c1beac01e792b12bd8be64c576ae6a7ff0b09f4ef3b2ccdec2a3bad3",
        "interlacing": "66e5f07aebfb9fca7f89c3902ffe666284e7043bc981567df2aa412211a7126c",
    },
    "(4, -1)": {
        "raw": "7c9d4c3aaac404a20cf4d79f65cc4cd1d0d4b3a76d2ae168026afa2818b965df",
        "normalized": "6e452576795f248e090221bdf5af3ecec18c5df8fd5ff5e1c2578f0cb1b8b0f9",
        "interlacing": "2bda76b67361ae455547a3bd0b270d2c9a627572d93e424aab34e03513f25833",
    },
    "(4, 0)": {
        "raw": "1718f7469502f8bfc8dd21198a67507facc37f76890e662aa2ae3d838570fc88",
        "normalized": "5b2e7885cccd0cefce4e2522be94e1387e48221ce1ecd90cbb693e87ab394c5f",
        "interlacing": "236bbc6e03998d1f31610ed810fd562607ff3eb55943c35e1380778aa477e41c",
    },
    "(4, 1)": {
        "raw": "dac00909f9e46fd318891c6b12fbef735126d9cd8a7d2e10921aaa058be9c1de",
        "normalized": "a124468fbd56e1609bdf3e7fa95cec3f9ff5aa1f880210c85cdf19e2b254afac",
        "interlacing": "e5c1b3aa22c68d574110137d7630ebbe4eb410f8a508caf634bc07b718c94316",
    },
    "(4, 2)": {
        "raw": "02bb362a88ad6042c447b484b188fb692dbe08bd35e3aa7af5c88f4cda2dd1de",
        "normalized": "340cef069ed6f17dfea4d4f992c5ed5d17693c0eea867c329b941b2289680a4d",
        "interlacing": "1c6d78c6aec4d64261000392391c4ae233e896770a5ce217f70a492f8d370247",
    },
    "(4, 3)": {
        "raw": "b7a07865fd005dd6259c8b6ec07e4b0399b21fffff03e5fb59bb7f5d97abcb5f",
        "normalized": "450716532f4783d5273672ed16e37cb06336df1c6490d567c11eb6a562d037bf",
        "interlacing": "d9b049483277b53747ad348904d0dcd57a98fcbaacc3661b95e7cc5311eb87f8",
    },
    "(4, 4)": {
        "raw": "7bb03cc25b51b97a5ad82b3a6ef991a47d8535f1e95346a849a125134f906970",
        "normalized": "cca8d8603531486e4a9afab1112fd0c1987bb39c430378c908933c40582f4d49",
        "interlacing": "7852164b2351e26f5672cbd668874685cf0e4be5fc25ef419f2a429aeec23b7d",
    },
    "(5, -4)": {
        "raw": "5f8673aa06be2138747d7a0a8f3de57baaf32d50c74c890e7dfa56cae22cec3a",
        "normalized": "a78805ad4ea6e4f5da5308a8f6184d38355bb88fd188f9a7d135c4468f18b8b5",
        "interlacing": "14eae60524aa624bb6d0bbf544cf7e478b926df707a69c34772a2e999eade344",
    },
    "(5, -3)": {
        "raw": "e0841dcd4a86b95c752da8b8f07119aa99f5e3b2874d14a3f1db3e1881cef9c7",
        "normalized": "7f8b15cadcc1eb41ebc383573e00e404b4af899534cc67759db2f5b162136a1a",
        "interlacing": "7e7ca52274520498a0ee621cfbf58b83e846437056d584663eb32676d2c98e22",
    },
    "(5, -2)": {
        "raw": "98057963449bf320980bb75a489297c6e4ef39f0a01359715c56e94f55e0c70b",
        "normalized": "e27427d789d4802b75225757b8d9c1f4cc77d350387614ce25f0d0b92bc926b8",
        "interlacing": "acc3ed7de9ebe954e8eba42c3d5ab700e40012e8e34799d54305bd3ee5d05449",
    },
    "(5, -1)": {
        "raw": "205cc96c4c0cf0d4fde0db48073b2ae574c1a60ea5c677b37c3326932bc7ff9c",
        "normalized": "03df965db20897974b712ce0a05538e2dcd65786c3d056c48ad00d2f7ecaaf7a",
        "interlacing": "68178fcf9fecead149396690ae19ce8a208254bbb61106740a1e7d34b3dfa7f5",
    },
    "(5, 0)": {
        "raw": "368e602d85b7b31d7a48083c0d9d330fa8ed07d3e1a817d730ce2e000ce10452",
        "normalized": "4066b9d2bdb3a189f8a1b7b3c695ce5a2d11824244abdff1200fb92714d2a56b",
        "interlacing": "420532efee7d948badfe86d07d37b1f8f06bd228afa67745e202b59f856afaeb",
    },
    "(5, 1)": {
        "raw": "973d94baa9862b69dd862350162d8172ffea7659c227896b4db7ade2b3486e60",
        "normalized": "d5d8b67ddbb745a2d454484deae57b7218d7889c7bb6c36f1b7d34ebc661b01f",
        "interlacing": "a6ab0438f2e515a4ec99977030e3ff97ecfdc72d4cd96c710f754c122045c8af",
    },
    "(5, 2)": {
        "raw": "90a0e66278f7e05662a98975509d785f8888417a73c30b2779ed0b8e9ee8d55c",
        "normalized": "d9706133c595c9156591b29fe850ffe98c0a27ce62841bac3e5aacbec2fd143e",
        "interlacing": "e31d9c13cc08a9a10fc4df5a56c04d21dfd56bb167fb6ad9f5c49cac5259fa81",
    },
    "(5, 3)": {
        "raw": "cce4e3af6144979fb38760fbd0a3322bc6b5e566c3d8629bf9463eb5d593038b",
        "normalized": "6d5d29df894f6d3285592e9bb7ca705816a10b31f09e5f7f338ec3be21b00330",
        "interlacing": "e05b14cf80d6dccc13ebd7354c52510d7f0949bb6173f40244249a2849d475cc",
    },
    "(5, 4)": {
        "raw": "ee504a829c3d0064a386f1d9b98d3ac096e393504aada9449742466f74ca9d5b",
        "normalized": "df2d99bea3e27299cc17b771bb253fe27bc94e403e5f5097df6776982a12d8c3",
        "interlacing": "a53742ea8409383e673c39def36ef722f121bbedd648320d90a10d3b798e8463",
    },
    "X2g2": {
        "raw": "1bfaa78aae30d99d116af36daaecc0a879ffc7c302f95a4b733ec9c0ec66dab9",
        "normalized": "796dd78e65b39478d82db099138a15bd96ba87a74fb96966dac94cdbe6a04ca0",
        "interlacing": "ca5388d7ead2fee501b5f17446a68487fd14e5177be08514a5c3b89fd527b49b",
    },
}


@pytest.mark.parametrize("key", BASES, ids=str)
def test_numerators_are_pinned(key):
    expected = PINS[str(key)]
    assert _tower_digest(key, normalize=False) == expected["raw"]
    assert _tower_digest(key, normalize=True) == expected["normalized"]
    assert _interlacing_digest(key) == expected["interlacing"]
