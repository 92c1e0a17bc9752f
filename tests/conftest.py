from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from synth import build_cars_csv, build_flights_csv, build_snapshot  # noqa: E402

from qgp import dataops, reposcan  # noqa: E402


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
