"""Pinned MiniC front end, token for token and IR for IR.

Each digest in ``PINNED`` covers one subject's token stream as
``(kind, value, line)`` triples, the :func:`program_fingerprint` of its IR
straight after lowering, and the fingerprint after :func:`compile_source`
(optimized and verified).  A speedup of the lexer, the verifier or any
other front-end stage must leave every digest unchanged.  A deliberate
change to the tokens or the IR re-blesses the table:
``PYTHONPATH=src python tests/test_frontend_pin.py`` prints the current
digests.
"""

import hashlib

import pytest

from repro.cfg.lowering import lower_program
from repro.lang import check_program, compile_source, parse, tokenize
from repro.runtime.compiler import program_fingerprint
from repro.subjects import all_subject_names, get_subject

PINNED = {
    "cflow": "211ccb946859b575b157d1bcd05078e262d0a93f6780f7968237c7958205b561",
    "exiv2": "3d27947412f0f0b4580ae2ea83e3f42c3e78cdd74715ce4aa6ac1604c80abafe",
    "ffmpeg": "91b2455dfe1c1f2d667cfe90e2e6773e5d7eb7bab14e1b335718b8509249d627",
    "flvmeta": "a562c19755500990fab9402387fc755825c624e67c375f74a593414258b98cc6",
    "gdk": "b657d122ab790d33d0dfd730e61b3273aa53b11879adcb59fdc14ea2ca87f154",
    "imginfo": "ff508b4ba6c872f87ec3187919887b3e6cdd2817f58b8155e5ac63c8c81dc6fe",
    "infotocap": "42f5d9427278f722fe4e9896b29356e70a3ceb9846129ab461c3daf46116d188",
    "jhead": "0208099a504cc409bcfb44f652733046f1222c31d36c1ccd375b071a2012f7a0",
    "jq": "7574144e6127b63bb38418c216dfc9324a1b9d2148ccff2763a6b5359d4a684e",
    "lame": "aef1ca5bd528307cee7f7c7c1004fc3164d34deba8fe219fa9008645bfa85c57",
    "motivating": "430f50a2eccce059f0cc721bd5ce53f64a661b080f65efa921de7041ccec0e89",
    "mp3gain": "501d8a23cce07cb4a8b3596df56ca4745effccf0b108c82f5c6673db3344fbec",
    "mp42aac": "f52c8968a3b509d2621a08608c792e0c7c2332cfa3c2c22e8b594093ad55cb80",
    "mujs": "b35462adba42b3019f4195e76678fcddf67e1b1402b0c3a28af8337402ba0f3e",
    "nm_new": "a00ffc4e370b48e2d34735c2f48b89bff2b90df785f297299e92fb3a52f74a2e",
    "objdump": "9f9f11af17174765dc95c93b40f5f7f986055040cf44ab8bf428604df86a421d",
    "pdftotext": "c85b3fb3b1ceac4945ac7a2a77b3cd3422871a7072c64ffd51257de253c2237d",
    "sqlite3": "a96ce917a30558c505c697857ac8111f9901134450aff98eb4441fc8d6f7fbbf",
    "tiffsplit": "50fc40b59d4ab85776101dfe74b56c3063a1c7904d6ef8432c38b1b4ca66a3f7",
}


def frontend_digest(name):
    source = get_subject(name).source
    digest = hashlib.sha256()
    tokens = [(tok.kind, tok.value, tok.line) for tok in tokenize(source)]
    digest.update(repr(tokens).encode())
    program_ast = parse(source)
    check_program(program_ast)
    digest.update(program_fingerprint(lower_program(program_ast, name)).encode())
    digest.update(program_fingerprint(compile_source(source, name)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", all_subject_names())
def test_front_end_pinned(name):
    digest = frontend_digest(name)
    assert digest == PINNED[name], "new digest for %s: %r" % (name, digest)


def test_pin_covers_every_subject():
    assert sorted(PINNED) == sorted(all_subject_names())


if __name__ == "__main__":
    for name in sorted(all_subject_names()):
        print('    "%s": "%s",' % (name, frontend_digest(name)))
