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
    "cflow": "3a5130b92c529fa43b60ad9f4c7826439b4f8c39b6c151f177139449ae7a5477",
    "exiv2": "22ec382cbaec344e2d2c1cf06d7c1ab9497c88a3cb1ab745c75e033863d2dadf",
    "ffmpeg": "ee4c2b95d2eb457f3b5cba0a68ac3e0b682e99f8271b242604356026f0a079fb",
    "flvmeta": "578f331db4b5fc5150a3299e06b5d62ef9580e8f29ca38a886695849417115b3",
    "gdk": "9b620f9c006dd3054bab48d3c65d80cc55551e7d9d8319e99bee8ef6c2d13237",
    "imginfo": "ccb9656a0d76c92af20a273a8a59e1e42d02be772192f101f5133ebb65c5d273",
    "infotocap": "bdf8ed93fe74a2cad431df036dc209227e177e2a638ea7be063b8b465b1845fe",
    "jhead": "04b22641eebe8dd046716d3feae19992fa6cac56ea5aa9dbc8a13378fd0a4236",
    "jq": "a6abfe5ec6862d395a879579f1882fdf71d2dddf9693c1df68deabbb975438eb",
    "lame": "569f1064785957e5bb1bec3ebedc1ad3be403be5495b1176cdaa8e744f6c7e2a",
    "motivating": "76d1fe83e9f9494fdcc92bfa9964281f6d79bb775b6e241cda4a0636fa8da86e",
    "mp3gain": "ea948577a870bf9d6c6238a20598e32d286824a33e5ae990070e2472f196f5da",
    "mp42aac": "5a732b6eaaf0b4114d78fa4ef4622cfa6364f4cd715cc8efe008f34fe5606925",
    "mujs": "63a31c8165cac084f85a4ec4c0dcb58df8ba3a01e5aa33ce1ef9ad89a0c9c187",
    "nm_new": "4076c0b5feb82d19ae14c0b807ab43bcfd5d6216b3affb4e43d1a60b72380748",
    "objdump": "dc39f5a062c163c81d5239d3cd375dbb337e383ffdffbe505ecccc1cdc2f833e",
    "pdftotext": "93b8166b52868e30d12ec360a4e76b88cac6259f59435a4d99645801b0b58b36",
    "sqlite3": "eba7f996d8bd746c435cee060e45ea9dab3612aeac02d9b03ffc1f46cb05ed66",
    "tiffsplit": "608094b8d0b797fe8210c3a0ae8ccd050e8babbc2fe666908f373984e7821c89",
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
