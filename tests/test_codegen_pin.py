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
    "cflow": "bdc5382bb2180a11007ad97b880b2de8f9dae7f713005b19bae504ee6e319d7f",
    "exiv2": "f876c9a4079791f0667b807560d24d010ca65ce7c0430702412c8a4eb7cfdaf2",
    "ffmpeg": "207356f8a3edaa74a942f92548383201b49fc046427eb76703e61a385e0ada63",
    "flvmeta": "89f706b5fe1094d2cf73cd58a41ae4a671e4efc87b4f526fbd0b9d37c5e54a4c",
    "gdk": "b5d2a0b3c174438cc19abee0f40328b8a826007752a2b6d0b098cab82b1b135f",
    "imginfo": "80d289a6744db55a9a3a2ad5f54f1c12134df5acc722f1b5b9a594d75ee75446",
    "infotocap": "064692912c045407653dc9bedd66a43a51c57a52b2495309226f01f0b13d1f53",
    "jhead": "75c5d1bb8063bde5890d907c21c52126c100a0a16ba4b81be761060df7e77607",
    "jq": "e70e88eadb8500f51d1f62255643fd989953a1d1ce4d052f8f357854a73aa580",
    "lame": "a72c5a7dd211d5fc06d76aac00d3fc5ce7afffc1a6550f3384da1a3cd595ae6c",
    "motivating": "13788411bd09ceaa4f6ebc6ed07f641be23e031cbc9b92e4f5109705b5febe09",
    "mp3gain": "193c0c00bed1da0266ce0b194e807ed52ddef620883862402ffdb9c890dd89a2",
    "mp42aac": "d4c04aedf64e998f14ac128f2fc3a18f3b3a75d88b142a959a5a25ce1e7cdb2d",
    "mujs": "55820c8a70a8fd7e7ead9660bcec8c8dcaf1ddcc9638bfa5b92aa6dd8ba3adcf",
    "nm_new": "cee0f6da36bda531a05334dd6a5cdfb954fed26da2abd522217f03623ee0e640",
    "objdump": "b09b627a3a3a4431c6beae960c34971be7e3224221c574269d042416c48a5ee4",
    "pdftotext": "ab56eaa4af62f363c4fa9f0e9198b83f06d784e2e12d78bbc1ed1ce755774be4",
    "sqlite3": "d9857309db6ecaff35e8eb98c8e20943536682aab0a2ffdf6117738d70ddad07",
    "tiffsplit": "4525fc3d01a80d13c0025b99233b6a9947089af374f5515792683a56e75f5d67",
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
