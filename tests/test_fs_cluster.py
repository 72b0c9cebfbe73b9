"""Integration tests for the semantic metadata cluster."""

import pytest

from repro.core.tuning import ServerReport
from repro.fs import (
    ClientError,
    FileSetRegistry,
    FileSystemClient,
    FSError,
    MetadataCluster,
)

ROOTS = {f"fs{i}": f"/projects/p{i}" for i in range(8)}


def make_cluster(servers=("a", "b", "c")) -> MetadataCluster:
    return MetadataCluster(list(servers), ROOTS)


# ----------------------------------------------------------------------
# FileSetRegistry
# ----------------------------------------------------------------------
def test_registry_resolution():
    reg = FileSetRegistry({"fsA": "/a", "fsAB": "/a/b", "fsC": "/c"})
    assert reg.fileset_of("/a/x") == "fsA"
    assert reg.fileset_of("/a/b/x") == "fsAB"  # deepest root wins
    assert reg.fileset_of("/c") == "fsC"
    with pytest.raises(FSError):
        reg.fileset_of("/elsewhere")


def test_registry_relative_paths():
    reg = FileSetRegistry({"fsA": "/a"})
    assert reg.relative("fsA", "/a") == "/"
    assert reg.relative("fsA", "/a/x/y") == "/x/y"
    with pytest.raises(FSError):
        reg.relative("fsA", "/b/x")


def test_registry_validation():
    with pytest.raises(FSError):
        FileSetRegistry({})
    with pytest.raises(FSError):
        FileSetRegistry({"a": "/r", "b": "/r"})
    with pytest.raises(FSError, match="duplicate"):
        FileSetRegistry({"a": "/a/b", "b": "//a/b/"})


# ----------------------------------------------------------------------
# Cluster basics
# ----------------------------------------------------------------------
def test_client_operations_end_to_end():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    client.mkdir("/projects/p0/src")
    client.create("/projects/p0/src/main.py")
    assert client.exists("/projects/p0/src/main.py")
    assert client.readdir("/projects/p0/src") == ["main.py"]
    client.setattr("/projects/p0/src/main.py", size=100)
    assert client.stat("/projects/p0/src/main.py").size == 100
    client.rename("/projects/p0/src/main.py", "/projects/p0/src/app.py")
    client.unlink("/projects/p0/src/app.py")
    client.rmdir("/projects/p0/src")
    cluster.check_consistency()


def test_errors_surface_as_client_errors():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    with pytest.raises(ClientError):
        client.stat("/projects/p1/missing")
    with pytest.raises(ClientError):
        client.mkdir("/projects/p1/a/b")  # missing parent


def test_cross_fileset_rename_rejected_exdev():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    client.create("/projects/p0/file")
    with pytest.raises(ClientError, match="EXDEV"):
        client.rename("/projects/p0/file", "/projects/p1/file")


def test_locks_routed_to_owner():
    cluster = make_cluster()
    c1 = FileSystemClient(cluster, "c1")
    c2 = FileSystemClient(cluster, "c2")
    c1.create("/projects/p2/data")
    assert c1.lock("/projects/p2/data", exclusive=True) is True
    assert c2.lock("/projects/p2/data", exclusive=True) is False  # queued
    c1.unlock("/projects/p2/data")


def test_ownership_matches_placement():
    cluster = make_cluster()
    cluster.check_consistency()
    for fileset in cluster.registry.filesets:
        assert cluster.owner_of(fileset) == cluster.placement.locate(fileset)


# ----------------------------------------------------------------------
# Retune moves images without losing data
# ----------------------------------------------------------------------
def test_retune_preserves_all_files():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    files = []
    for i in range(8):
        path = f"/projects/p{i}/file{i}"
        client.create(path)
        files.append(path)
    # Force a big skew so something actually moves.
    hot = max(
        cluster.services,
        key=lambda s: len(cluster.services[s].owned_filesets()),
    )
    reports = [
        ServerReport(s, 1.0 if s == hot else 0.01, 100)
        for s in cluster.services
    ]
    moved = cluster.retune(reports)
    cluster.check_consistency()
    for path in files:
        assert client.exists(path), path
    assert cluster.ledger.reconfigurations >= 1
    assert moved >= 0


def test_retune_no_reports_no_moves():
    cluster = make_cluster()
    reports = [ServerReport(s, 0.0, 0) for s in cluster.services]
    assert cluster.retune(reports) == 0


# ----------------------------------------------------------------------
# Failure / membership
# ----------------------------------------------------------------------
def test_crash_recovers_from_last_flushed_image():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    client.create("/projects/p0/durable")
    cluster.checkpoint()                      # flushed to shared disk
    client.create("/projects/p0/volatile")    # NOT flushed
    victim = cluster.owner_of("fs0")
    cluster.fail_server(victim)
    cluster.check_consistency()
    assert client.exists("/projects/p0/durable")
    assert not client.exists("/projects/p0/volatile")  # lost with the crash


def test_graceful_decommission_loses_nothing():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    client.create("/projects/p3/kept")
    victim = cluster.owner_of("fs3")
    cluster.remove_server(victim)
    cluster.check_consistency()
    assert client.exists("/projects/p3/kept")
    assert victim not in cluster.services


def test_add_server_takes_ownership_share():
    cluster = make_cluster(servers=("a", "b"))
    cluster.add_server("c")
    cluster.check_consistency()
    assert "c" in cluster.services


def test_fail_unknown_server_rejected():
    cluster = make_cluster()
    with pytest.raises(FSError):
        cluster.fail_server("ghost")
    with pytest.raises(FSError):
        cluster.remove_server("ghost")
    with pytest.raises(FSError):
        cluster.add_server("a")


def test_operations_work_after_fail_and_add_cycle():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    client.create("/projects/p5/x")
    cluster.checkpoint()
    cluster.fail_server(cluster.owner_of("fs5"))
    cluster.add_server("fresh")
    cluster.check_consistency()
    assert client.exists("/projects/p5/x")
    client.create("/projects/p5/y")
    assert client.exists("/projects/p5/y")


def test_transfer_to_unknown_server_changes_nothing():
    """The destination is checked before the source releases its image;
    before the check the source dropped the file set and the ownership
    map still named it."""
    cluster = make_cluster()
    owner = cluster.owner_of("fs0")
    with pytest.raises(FSError):
        cluster.transfer_ownership("fs0", "ghost")
    assert cluster.owner_of("fs0") == owner
    assert cluster.services[owner].owns("fs0")
    cluster.check_consistency()


def test_membership_changes_replace_through_the_policy_placement():
    """The cluster keeps no placement of its own: every membership change
    re-places the one its :class:`ANUPolicy` holds, so the attribute
    :meth:`owner_set_of` reads stays that object and names the live
    services."""
    cluster = make_cluster(("a", "b", "c", "d"))
    placement = cluster.policy.placement
    assert cluster.placement is placement
    for change in (
        lambda: cluster.fail_server("b"),
        lambda: cluster.add_server("e"),
        lambda: cluster.remove_server("c"),
        lambda: cluster.add_server("b"),
    ):
        change()
        assert cluster.placement is cluster.policy.placement is placement
        assert sorted(placement.servers) == sorted(cluster.services)
        cluster.check_consistency()
