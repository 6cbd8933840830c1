"""The fastpath benchmark driver and its `bench-fastpath` CLI surface."""

import json

import pytest

from repro.cli import main
from repro.experiments import run_fastpath_bench, sample_destination_values
from repro.tablegen import generate_table


class FakeClock:
    """Deterministic monotonic clock: one tick per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_bench_payload_shape_and_certification():
    payload = run_fastpath_bench(
        table_size=150, packets=200, seed=1, clock=FakeClock()
    )
    assert payload["bench"] == "fastpath"
    assert payload["certification"]["disagreements"] == 0
    assert payload["certification"]["checked"] > 0
    assert set(payload["algorithms"]) == {"regular", "simple", "advance"}
    for summary in payload["algorithms"].values():
        scalar, batched = summary["scalar"], summary["batched"]
        assert scalar["elapsed_s"] is not None
        assert batched["packets_per_sec"] is not None
        assert summary["speedup"] is not None
        # The memref accounting is identical by construction — the bench
        # raises if the totals ever diverge.
        assert scalar["memrefs_per_packet"] == batched["memrefs_per_packet"]
    assert payload["width"] == 32
    assert payload["backend"] == "numpy"


def test_bench_without_clock_is_deterministic():
    first = run_fastpath_bench(table_size=100, packets=150, seed=3)
    second = run_fastpath_bench(table_size=100, packets=150, seed=3)
    assert first == second
    summary = first["algorithms"]["simple"]
    assert summary["scalar"]["elapsed_s"] is None
    assert summary["speedup"] is None
    assert summary["scalar"]["memrefs_per_packet"] > 0


def test_sampler_stays_under_sender_prefixes():
    entries = generate_table(80, seed=4)
    values = sample_destination_values(entries, 64, seed=5)
    assert len(values) == 64
    lengths = {prefix.length for prefix, _hop in entries}
    from repro.addressing import Address
    from repro.trie.binary_trie import BinaryTrie

    trie = BinaryTrie(32)
    for prefix, hop in entries:
        trie.insert(prefix, hop)
    for value in values:
        assert trie.best_prefix(Address(value, 32)) is not None
    assert lengths  # the table is non-trivial


def test_cli_writes_payload_and_summarises(tmp_path, capsys):
    output = tmp_path / "BENCH_fastpath.json"
    code = main(
        [
            "bench-fastpath",
            "--table-size", "120",
            "--packets", "150",
            "--seed", "1",
            "--output", str(output),
        ]
    )
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["certification"]["disagreements"] == 0
    err = capsys.readouterr().err
    assert "certified:" in err
    assert "simple:" in err


def test_bench_layouts_section_shape():
    payload = run_fastpath_bench(
        table_size=150,
        packets=200,
        seed=1,
        clock=FakeClock(),
        layouts=("dense", "multibit4", "multibit8"),
    )
    layouts = payload["layouts"]
    assert set(layouts) == {"dense", "multibit4", "multibit8"}
    assert layouts["dense"]["stride"] == 0
    assert layouts["dense"]["memrefs_vs_dense"] == 1.0
    for name in ("multibit4", "multibit8"):
        section = layouts[name]
        assert section["stride"] == int(name[-1])
        assert section["certified_lanes"] > 0
        assert section["trie_nbytes"] > 0
        assert section["table_nbytes"] > 0
        assert section["base_nbytes"] > 0
        assert section["probe_bound"] == -(-32 // section["stride"])
        assert section["bytes_per_prefix"] >= (
            section["entropy_bound_bytes_per_prefix"]
        )
        assert section["memrefs_vs_dense"] < 1.0
        assert (
            section["full"]["memrefs_per_packet"]
            < layouts["dense"]["full"]["memrefs_per_packet"]
        )


def test_bench_rejects_unknown_layout():
    with pytest.raises(ValueError):
        run_fastpath_bench(table_size=80, packets=50, layouts=("multibit16",))


def test_cli_layout_matrix(tmp_path, capsys):
    output = tmp_path / "layouts.json"
    code = main(
        [
            "bench-fastpath",
            "--quick",
            "--table-size", "150",
            "--packets", "200",
            "--layout", "dense",
            "--layout", "multibit8",
            "--output", str(output),
        ]
    )
    assert code == 0
    payload = json.loads(output.read_text())
    assert set(payload["layouts"]) == {"dense", "multibit8"}
    err = capsys.readouterr().err
    assert "layout multibit8:" in err
    assert "entropy bound" in err


def test_cli_quick_clamps_scale(tmp_path):
    output = tmp_path / "quick.json"
    code = main(
        [
            "bench-fastpath",
            "--quick",
            "--table-size", "300",
            "--packets", "250",
            "--output", str(output),
        ]
    )
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["table_size"] == 300  # already under the quick clamp
    assert payload["packets"] == 250
