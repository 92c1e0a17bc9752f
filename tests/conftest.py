from __future__ import annotations

import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from synth import build_cars_csv, build_flights_csv, build_snapshot  # noqa: E402

from qgp import dataops, reposcan  # noqa: E402


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--whole-grid",
        action="store_true",
        help="run every type-swap case of tests/test_type_swap.py, not a sample",
    )


@pytest.fixture(scope="session")
def snapshot_roots(tmp_path_factory) -> list[Path]:
    base = tmp_path_factory.mktemp("snapshots")
    roots = []
    for offset, name in enumerate(["alpha_repo", "beta_repo", "gamma_repo"]):
        roots.append(build_snapshot(base / name, offset=offset))
    return roots


@pytest.fixture(scope="session")
def reposcan_manifest_path(snapshot_roots, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("manifests") / "reposcan.json"
    manifest = reposcan.generate_manifest(snapshot_roots, seed=11)
    reposcan.write_manifest(manifest, path)
    return path


@pytest.fixture(scope="session")
def reposcan_loaded(reposcan_manifest_path):
    manifest = reposcan.load_manifest(reposcan_manifest_path)
    corpora = {info.name: reposcan.read_snapshot(info.root).corpus for info in manifest.snapshots}
    return manifest, corpora


@pytest.fixture(scope="session")
def csv_sources(tmp_path_factory) -> list[Path]:
    base = tmp_path_factory.mktemp("csv")
    return [build_cars_csv(base / "cars.csv"), build_flights_csv(base / "flights.csv")]


@pytest.fixture(scope="session")
def fixture_sources(csv_sources, snapshot_roots) -> dataops.FixtureSources:
    return dataops.FixtureSources(
        csv_paths=tuple(str(p) for p in csv_sources),
        snapshot_roots=(str(snapshot_roots[0]),),
    )


@pytest.fixture(scope="session")
def dataops_manifest_path(fixture_sources, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("manifests") / "dataops.json"
    manifest = dataops.generate_dataops_manifest(fixture_sources, seed=23)
    dataops.write_manifest(manifest, path)
    return path


@pytest.fixture(scope="session")
def dataops_loaded(dataops_manifest_path):
    return dataops.load_manifest(dataops_manifest_path)


@dataclass
class OpenLog:
    """The full path of every `os.open`, also of one relative to a directory
    descriptor, in the order opened: directories and other files apart."""

    directories: list[str] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    # The path of each descriptor `os.open` returned, kept until its number
    # is returned again.
    paths: dict[int, str] = field(default_factory=dict)
    # Called with (path, flags) before each open; it may raise or change the tree.
    before: Callable[[str, int], None] | None = None


@pytest.fixture
def opens(monkeypatch) -> OpenLog:
    log = OpenLog()
    real_open = os.open

    def logging_open(path, flags, mode=0o777, *, dir_fd=None):
        full = os.fspath(path)
        if dir_fd is not None:
            full = os.path.join(log.paths[dir_fd], full)
        if log.before is not None:
            log.before(full, flags)
        fd = real_open(path, flags, mode, dir_fd=dir_fd)
        log.paths[fd] = full
        (log.directories if flags & os.O_DIRECTORY else log.files).append(full)
        return fd

    monkeypatch.setattr(os, "open", logging_open)
    return log
