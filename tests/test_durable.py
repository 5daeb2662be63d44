"""The one atomic replace (`repro.durable.atomic_write`) and its saves.

A save that dies before its rename must leave the previous file byte
for byte and no scratch file behind.
"""

import os

import pytest

from repro.analysis.dataset import export_dataset
from repro.api import RunResult, RunSpec, WorldSpec
from repro.durable import atomic_write
from repro.webgen import build_world


class Crash(Exception):
    pass


def _crashing_replace(source, destination):
    raise Crash(f"injected crash before renaming {source}")


def _save_spec(directory, version):
    return RunSpec(kind="crawl", world=WorldSpec(seed=version)).save(
        directory / "spec.json"
    )


def _save_result(directory, version):
    spec = RunSpec(kind="crawl", world=WorldSpec(seed=version))
    return RunResult(spec, records=[], executed=version).save(
        directory / "result.json"
    )


def _export_manifest(directory, version):
    world = build_world(scale=0.01, seed=3)
    export_dataset(directory, world=world, description=f"version {version}")
    return directory / "manifest.json"


@pytest.mark.parametrize(
    "save", [_save_spec, _save_result, _export_manifest],
    ids=["RunSpec.save", "RunResult.save", "export_dataset-manifest"],
)
def test_failed_replace_keeps_previous_file(tmp_path, monkeypatch, save):
    path = save(tmp_path, 1)
    before = path.read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", _crashing_replace)
        with pytest.raises(Crash):
            save(tmp_path, 2)
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []
    assert save(tmp_path, 2).read_bytes() != before


def test_atomic_write_returns_the_writers_result_with_a_plain_mode(tmp_path):
    target = tmp_path / "new" / "file.bin"
    assert atomic_write(target, lambda handle: handle.write(b"abc")) == 3
    assert target.read_bytes() == b"abc"
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in target.parent.iterdir()) == ["file.bin"]
