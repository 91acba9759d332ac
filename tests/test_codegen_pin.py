"""Pinned generated code of the compiled backend, byte for byte.

Each digest in ``PINNED`` covers every subject's :func:`generate_sources`
output under ``path``, under ``edge`` and under ``edge`` with its probe
pruning plan, each with cmplog off and on.  Code generation is pure string work, so
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
    "cflow": "80af71e5d73a60df33e4f9947037ec047183154a668f4ed1c5695ee1d8456717",
    "exiv2": "be81ce57f385dd99facde83381fdd22ec1b8b6cb5905eb1ec07fe62e00428923",
    "ffmpeg": "bdb02e8d6c8c15a47d569554d874c2c6fdc1f08fc4f267a3f6feaa9941487e6e",
    "flvmeta": "996f4fcc088e5f1af0dc9d76cc79008cf80832e4bee502fb6b7a9bb30ca6a91f",
    "gdk": "34e78a1ae8d7e3948ca407a29a64c2786a318abd7ba4633c56af507f00ee7851",
    "imginfo": "96733a42d40a1e8bfe11714c16ebb327a72a2a721e4748b7091b3706f4794a55",
    "infotocap": "5237400d403f5a3031d752c856d2d8a85d9c4160e1c05b8a41f89ccebbf5a86c",
    "jhead": "7c7cf921f6d2a237454e3d8579c2c92a3fa00fa798608952b27905326434f7d1",
    "jq": "d9436b7c6a2cf0b6f786954b19c475b2bbbb7e25f93538407f79344628d5c8ee",
    "lame": "5ec1092880e4cf2c846b91a2fd029a66449e527b925978a06e2ecd58e6421831",
    "motivating": "f0ebcfddb21803422c9c65d91103f720531f911ab6a21e04b4ee909446d3d2bb",
    "mp3gain": "c0c0b14b417f5b76b55c9a46777fa6cb1445c4aaa37a5692bf3361054bf2e283",
    "mp42aac": "59b82c00a1567c6ca29e4e3c82a14df148b516b1536c0218f815827548e42161",
    "mujs": "fdf134f169da65ecac65035e87235e53eb2832d937708d1b68ec921f0151af1d",
    "nm_new": "4996864480ab1fdc4beb522bccd63ca62e33833786990caed80d1d9c8d04e7f6",
    "objdump": "e220bf35c4a3d85ae21939d642d47fd0826f4234ac2c45f57e158ee86a8ace43",
    "pdftotext": "aca3c416864a7684cc847ca23ee14346d8ce0455b422fd1172075d3c613aeb79",
    "sqlite3": "3a901ee6e0407212fbb7bfb1c73ea1a82e05bfa852e6dcff4d18c05b998c0246",
    "tiffsplit": "9aa2a14e4553f6010d14cba218b8556e97a33bd7f49e9e0af5888da7ab9dacd0",
}

# The cmplog flag of every variant a CompiledProgram can build.
VARIANTS = (False, True)


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
        for cmplog in VARIANTS:
            sources = generate_sources(program, instrumentation, prune, cmplog)
            yield (label, cmplog), sources


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
        for cmplog in order:
            compiled._functions(cmplog)
        for cmplog in order:
            path = compiler._disk_cache_path(compiled._key, cmplog)
            with open(path) as handle:
                built = json.load(handle)["sources"]
            assert built == generate_sources(
                program, instrumentation, None, cmplog
            ), cmplog
    finally:
        compiler.clear_cache()


if __name__ == "__main__":
    for name in sorted(all_subject_names()):
        print('    "%s": "%s",' % (name, codegen_digest(name)))
