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
    "cflow": "26faa1c9309b6e3014c93617c8bcec207b8648264ee370e1e1fc948287e27fe4",
    "exiv2": "9ec1290124ddbdea6177e86ea1547d4cf86a54f0a1122e0b2b088fd4ac1922f6",
    "ffmpeg": "d735cc6940a838bc87d24b37159e7b40c5d71643ab37d80ca12f5cf56c3fbccb",
    "flvmeta": "29bc0cbd2b4e78a3b50cc40f414945d4af9fdd6cf82dadce223d8ce53e2839b6",
    "gdk": "b451cc48fc81d2ccbb3f672a5b1021d20871ebd8c142e2757032d0f825be4e28",
    "imginfo": "6441ff54ca783ce4814385356020321999c855275cc80f14e6eab9cb03e49ead",
    "infotocap": "52760b87ae3196a8d2bed3fa41cd27a88e1082466e1c066308a270febda59384",
    "jhead": "0e6fc12cea8fa5aead20e57fc6b2ac8f2d58a1ca795375a6160e6a1fe39c69d4",
    "jq": "383092a9ae8df194e999d816ad7c948d23ff9345e9468ab1cd0d45a1bc7c07bc",
    "lame": "6116119a258d5fb2f6ca703b64c2e4186c4f924ba5568af9d5e124aa39f26409",
    "motivating": "c102035499f272eaec279e092ae61b5880ae4bdc6a4e6367cdd6ec507d1d30b5",
    "mp3gain": "f72f0db29673da1e21e95e858992ec2a9a74b14b6219ccc68049342d25807461",
    "mp42aac": "6da1d89bc8eb1a33aa5ae2040fe5efe90a706e0d5187eb510337230d7bfd8301",
    "mujs": "0d4cabc227f9c4148baf982b868a3ce311bda2fbf358e2319d98ba0cd8a0a494",
    "nm_new": "bb98898d67b4814f9aab6388a2cce8ce48455635e15409d0137c6271aedaf68a",
    "objdump": "8ed495ef3e8916b0e4895c2d39bfe2b09e1bc3d17a4058d1a191ca51d1651c18",
    "pdftotext": "94e0efd22caac6694a01cb8196b24f26cc8d775a00700e85169d68f715fa9fe3",
    "sqlite3": "b96a73b7095b52216896b72801b58ef7dd7a259be7249ac5b510216a27de3c8a",
    "tiffsplit": "ac6bec673e2e0a04436d3971371978f028dc81a4dbca917c47c8007bbb93070a",
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
