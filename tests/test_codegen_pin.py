"""Pinned generated code of the compiled backend, byte for byte.

Each digest in ``PINNED`` covers every subject's :func:`generate_sources`
output under ``path``, under ``edge`` and under ``edge`` with its probe
pruning plan, each with cmplog off and on and in the exact and the fast
(lazily budget-checked) variants.  Code generation is pure string work, so
the digests hold on every supported Python version and under any
``PYTHONHASHSEED``; a digest that moves with either is a nondeterminism
bug in the compiler, not a reason to pin per version.

The pin calls :func:`generate_sources` directly, so neither the in-process
compile memo nor a ``REPRO_COMPILE_CACHE`` directory can hide a change.  A
deliberate change to the generated code re-blesses the table:
``PYTHONPATH=src python tests/test_codegen_pin.py`` prints the current
digests.
"""

import hashlib
import json

import pytest

from repro.coverage.feedback import feedback_by_name
from repro.coverage.prune import build_prune_plan
from repro.runtime import compiler
from repro.runtime.compiler import compile_program, generate_sources
from repro.subjects import all_subject_names, get_subject

PINNED = {
    "cflow": "e337ebf968d0b0a20678ca2888f7d7e9d50c6535adbb44bbf8d1e4cff63bd48a",
    "exiv2": "1d1c177eb0710382caaa11be28d792b3d7838759f524a32c2a5805af08572b65",
    "ffmpeg": "60b07d5494bd3e6e791a167d92993d56bc2b7e59e758948cc7615c5bb76896f0",
    "flvmeta": "2a49d19f40a949c4f8b134efd545f4bff9de4b62459387673508295c3b6c94be",
    "gdk": "daf308a70275a433ef58148f3440a6471f2e555d9bf014566bbacef9ed988b49",
    "imginfo": "2bb8034c991fcc818f5937b3a7d5225aa05dbbe335d4e01315882a7fe4395a2b",
    "infotocap": "e28611acbca0e0ea175fad63c429629d7040a9c49e904f89508a9eec18b05183",
    "jhead": "b6c0b88836a8ecc56f8a7e7eb9ec7f8ced7fb891467e7fb10ebae324b8761f44",
    "jq": "e29c828f4230b015d57723251b265a5fa445c774ccd6a59df03f50a1c1081050",
    "lame": "c8975fe5ccb71460eb08aa234b0a7207aed57911dc0fce49a0e94570eddf43d2",
    "motivating": "7407c20f9d889fb51ae5e4a7b7d86e60e9cdacf2ab160ddbc42ac0956b8236ae",
    "mp3gain": "157d3009c3cf05db1167b64c02ddc807c8035e9e8931b749947e9984a0d67104",
    "mp42aac": "ff152382afd9989b8a095e0ef7cbea3dcb884b95f4d6d005c9dbf9223a6026cc",
    "mujs": "60585386a359403cbecf1f6c06747619ca999a51d4c538941493196b75b2ffc0",
    "nm_new": "5046c1ca55f4362d7740e2a4f39c15fab6c02cf5131bb5ec3ac992bd59906eba",
    "objdump": "f732afa4623501cd9cf3de1c17cdbd31e896f11aafa25a8c6a74cc74e4e9ee9d",
    "pdftotext": "c776c2544dcaddced8ae34e2b518ff74d328ed02ed5596e949507e293f448bb7",
    "sqlite3": "37138bb766b6ceaca1ee28849167b33bb99159fcf4379b3a7400bb59cca05dc4",
    "tiffsplit": "187b26759266833fc14f8a1fb4340197bfc6374daa64d0ae2a29315454963b10",
}

# Every (cmplog, fast) variant a CompiledProgram can build.
VARIANTS = ((False, False), (True, False), (False, True), (True, True))


def source_sets(program):
    """Every pinned (label, sources) pair of one program."""
    path = feedback_by_name("path").instrument(program)
    edge = feedback_by_name("edge").instrument(program)
    plans = (
        ("path", path, None),
        ("edge", edge, None),
        ("edge+prune", edge, build_prune_plan(program, edge)),
    )
    for label, instrumentation, prune in plans:
        for cmplog, fast in VARIANTS:
            sources = generate_sources(program, instrumentation, prune, cmplog, fast)
            yield (label, cmplog, fast), sources


def codegen_digest(name):
    digest = hashlib.sha256()
    for key, sources in source_sets(get_subject(name).program):
        digest.update(repr(key).encode())
        for source in sources:
            digest.update(source.encode())
            digest.update(b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", all_subject_names())
def test_generated_code_pinned(name):
    digest = codegen_digest(name)
    assert digest == PINNED[name], "new digest for %s: %r" % (name, digest)


def test_pin_covers_every_subject():
    assert sorted(PINNED) == sorted(all_subject_names())


@pytest.mark.parametrize(
    "order", [VARIANTS, VARIANTS[::-1]], ids=["forward", "reverse"]
)
@pytest.mark.parametrize("name", ["sqlite3", "jq"])
def test_one_program_builds_every_variant_as_fresh(name, order, tmp_path, monkeypatch):
    """Variants built through one CompiledProgram, in either order, carry
    the same sources as fresh generate_sources calls (read back from the
    on-disk compile cache, which stores exactly what was exec'd)."""
    program = get_subject(name).program
    instrumentation = feedback_by_name("path").instrument(program)
    monkeypatch.setenv(compiler.CACHE_ENV, str(tmp_path))
    compiler.clear_cache()
    try:
        compiled = compile_program(program, instrumentation)
        for cmplog, fast in order:
            compiled._functions(cmplog, fast=fast)
        for cmplog, fast in order:
            path = compiler._disk_cache_path(compiled._key, cmplog, fast)
            with open(path) as handle:
                built = json.load(handle)["sources"]
            assert built == generate_sources(
                program, instrumentation, None, cmplog, fast
            ), (cmplog, fast)
    finally:
        compiler.clear_cache()


if __name__ == "__main__":
    for name in sorted(all_subject_names()):
        print('    "%s": "%s",' % (name, codegen_digest(name)))
