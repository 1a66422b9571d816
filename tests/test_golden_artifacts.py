"""The CLI's artifacts for a fixed seed are byte-identical to the digests in
golden_digests.json (see golden_artifacts.py to rewrite them)."""

import json

import golden_artifacts as golden
from test_bench_records import pinned


def recorded() -> dict:
    return json.loads(golden.DIGESTS.read_text(encoding="utf-8"))


def test_digest_file_records_the_ci_pins():
    versions = recorded()["versions"]
    assert versions["numpy"] == pinned("numpy")
    assert versions["scipy"] == pinned("scipy")


def test_cli_artifacts_match_golden_digests(tmp_path, capsys):
    want = recorded()
    assert golden.versions() == want["versions"], (
        f"{golden.DIGESTS.name} holds digests made under {want['versions']},"
        f" not under this run's {golden.versions()}"
    )
    got = golden.digests(golden.write_artifacts(tmp_path))
    # windows 0, 2 and 5 in S1, window 4 in S3: the reset after window 4 returns to S1
    assert "S1 invocations 3, S3 invocations 1" in capsys.readouterr().out
    states = [json.loads(line)["state"]
              for line in (tmp_path / "events.jsonl").read_text(encoding="utf-8").splitlines()]
    assert states == ["S2", "S3"]
    changed = sorted(name for name in want["artifacts"].keys() | got.keys()
                     if want["artifacts"].get(name) != got.get(name))
    assert not changed, f"artifacts differ from {golden.DIGESTS.name}: {changed}"
