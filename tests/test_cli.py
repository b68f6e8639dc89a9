import json

import pytest

from qmaze import cli, deserialize, validate_perfect, walk
from qmaze.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_valid_maze(tmp_path, capsys):
    target = tmp_path / "maze.txt"
    code, out, _ = run(capsys, "gen", "--size", "3", "--seed", "11",
                       "-o", str(target))
    assert code == 0
    assert "3x3" in out
    maze = deserialize(target.read_text())
    assert validate_perfect(maze)
    assert maze.seed == 11


def test_gen_stdout_when_no_output(capsys):
    code, out, err = run(capsys, "gen", "--size", "2", "--seed", "1")
    assert code == 0
    assert validate_perfect(deserialize(out))
    assert "2x2" in err


def test_gen_size_zero_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--size", "0")
    assert code == 1
    assert "error" in err


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(capsys, "gen", "--size", "16", "--seed", "7", "-o", str(a))[0] == 0
    assert run(capsys, "gen", "--size", "16", "--seed", "7", "-o", str(b))[0] == 0
    assert a.read_text() == b.read_text()


def test_unknown_flag_is_usage_error(capsys):
    assert run(capsys, "gen", "--sizzle", "3")[0] == 1


def test_missing_command_is_usage_error(capsys):
    assert run(capsys)[0] == 1


def test_solve_json_replay(tmp_path, capsys):
    target = tmp_path / "maze.txt"
    run(capsys, "gen", "--size", "3", "--seed", "11", "-o", str(target))
    code, out, _ = run(capsys, "solve", "--maze", str(target),
                       "--start", "0,0", "--end", "2,2",
                       "--rng-seed", "5", "--rounds", "16",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    maze = deserialize(target.read_text())
    from qmaze import parse_path
    res = walk(maze, tuple(doc["start"]), tuple(doc["end"]),
               parse_path(doc["best_path"]))
    assert list(res.final_room) == doc["final_room"]
    assert res.reached_end == doc["reached_end"]
    assert doc["result"]["best_fitness"] <= doc["d_max"]
    accepted = [r["measured_fitness"] for r in doc["result"]["rounds"]
                if r["accepted"]]
    assert accepted == sorted(set(accepted))


def test_solve_text_output(capsys):
    code, out, _ = run(capsys, "solve", "--size", "3", "--seed", "11",
                       "--rng-seed", "1", "--rounds", "16")
    assert code == 0
    assert "best fitness" in out
    assert "oracle calls" in out


def test_solve_start_equals_end(capsys):
    code, out, _ = run(capsys, "solve", "--size", "3", "--seed", "11",
                       "--start", "1,1", "--end", "1,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["optimal"] is True
    assert doc["result"]["best_fitness"] == doc["d_max"] == 8


def test_solve_deterministic(capsys):
    args = ("solve", "--size", "3", "--seed", "11", "--rng-seed", "9",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("command", ["solve", "verify", "bench"])
def test_solve_over_cap_refused(capsys, command):
    code, out, err = run(capsys, command, "--size", "5", "--seed", "1")
    assert code == 1  # default n = 16 > cap 14
    assert "cap" in err
    assert "--length N with N <= 14" in err  # not "raise the cap"
    assert out == ""  # refused before any check or search ran


def test_solve_prints_an_empty_path_as_a_dash(capsys):
    argv = ("solve", "--size", "5", "--seed", "2", "--start", "0,0",
            "--end", "0,1", "--length", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "best path: - -> final room (0, 0), reached end: False" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["best_path"] == ""


def test_solve_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "solve", "--maze", "/no/such/file.txt")
    assert code == 2
    assert "error" in err


def test_solve_corrupt_file_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 0\n20\n00\n")
    assert run(capsys, "solve", "--maze", str(bad))[0] == 2


def test_solve_requires_a_maze(capsys):
    assert run(capsys, "solve")[0] == 1


def test_solve_both_sources_rejected(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("1 0\n0\n")
    assert run(capsys, "solve", "--maze", str(f), "--size", "2")[0] == 1


def test_solve_table_cache(tmp_path, capsys):
    cache = tmp_path / "table.bin"
    args = ("solve", "--size", "3", "--seed", "11", "--rng-seed", "2",
            "--fitness-table", str(cache), "--format", "json")
    _, first, _ = run(capsys, *args)
    assert cache.exists()
    _, again, _ = run(capsys, *args)
    assert first == again
    # cache built for other flags is refused
    code, _, err = run(capsys, "solve", "--size", "3", "--seed", "11",
                       "--end", "1,1", "--fitness-table", str(cache))
    assert code == 1
    assert "different" in err


def test_solve_table_cache_from_another_maze_refused(tmp_path, capsys):
    # same size, length and endpoints; only the maze seed differs
    cache = tmp_path / "t.bin"
    args = ("solve", "--size", "4", "--length", "6", "--fitness-table", str(cache))
    assert run(capsys, *args, "--seed", "1")[0] == 0
    code, out, err = run(capsys, *args, "--seed", "2")
    assert code == 1
    assert "different" in err
    assert "optimal certificate" not in out


def test_solve_corrupt_table_cache_is_io_error(tmp_path, capsys):
    import struct
    cache = tmp_path / "t.bin"
    args = ("solve", "--size", "3", "--seed", "11", "--fitness-table", str(cache))
    assert run(capsys, *args)[0] == 0
    good = cache.read_bytes()
    header, body = good[:40], good[40:]
    cache.write_bytes(b"not a table")
    assert run(capsys, *args)[0] == 2
    for bad in (b"QMFt" + good[4:],            # magic
                good[:39],                     # header one byte short
                good[:-1], good + b"\0",       # body one byte off
                header + b"\xff" + body[1:]):  # a value above D_max = 8
        cache.write_bytes(bad)
        assert run(capsys, *args)[0] == 2
    # a file that says format version 1 or 2 is refused, not read
    for version in (1, 2):
        data = bytearray(header)
        struct.pack_into("<I", data, 4, version)
        cache.write_bytes(bytes(data) + body)
        code, _, err = run(capsys, *args)
        assert code == 2
        assert f"version {version}" in err


def test_solve_cache_above_cap_is_usage_error(tmp_path, capsys):
    cache = tmp_path / "t.bin"
    args = ("solve", "--size", "3", "--seed", "11", "--fitness-table", str(cache))
    assert run(capsys, *args)[0] == 0
    for length, cap in (("15", "14"), ("8", "7")):
        code, _, err = run(capsys, *args, "--length", length, "--cap", cap)
        assert code == 1
        assert "cap" in err


def test_solve_json_reports_round_probabilities(capsys):
    code, out, _ = run(capsys, "solve", "--size", "3", "--seed", "11",
                       "--rng-seed", "3", "--format", "json")
    assert code == 0
    rounds = json.loads(out)["result"]["rounds"]
    assert rounds
    assert all(0.0 <= rec["p_success"] <= 1.0 for rec in rounds)


@pytest.mark.parametrize("target,argv", [
    ("generate_maze", ("gen", "--size", "3")),
    ("build_fitness_table", ("verify", "--size", "3", "--seed", "11")),
])
def test_out_of_memory_is_exit_1(monkeypatch, capsys, target, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.00 GiB for an array")
    monkeypatch.setattr(cli, target, exhausted)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error: out of memory: Unable to allocate" in err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--size", "3", "--seed", "11")
    assert code == 0
    assert "[ok] perfect maze" in out
    assert "[FAIL]" not in out


def test_verify_corrupt_file_fails_check(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 0\n20\n00\n")
    code, out, _ = run(capsys, "verify", "--maze", str(bad))
    assert code == 3
    assert "[FAIL]" in out


def test_verify_not_applicable_note(capsys):
    code, out, _ = run(capsys, "verify", "--size", "3", "--seed", "11",
                       "--length", "1")
    assert code == 0
    assert "[n/a]" in out


def test_bench_single_trial_json(capsys):
    code, out, _ = run(capsys, "bench", "--size", "2", "--seed", "42",
                       "--trials", "1", "--rng-seed", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 1
    assert len(doc["records"]) == 1
    assert doc["success_rate"] in (0.0, 1.0)


def test_bench_text(capsys):
    code, out, _ = run(capsys, "bench", "--size", "2", "--seed", "42",
                       "--trials", "5", "--rounds", "12")
    assert code == 0
    assert "success rate" in out


def test_bench_unknown_mode(capsys):
    code, out, _ = run(capsys, "bench", "--size", "2", "--seed", "42",
                       "--trials", "3", "--mode", "unknown_count",
                       "--rounds", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["trials"] == 3


def test_render_single_cell(capsys):
    code, out, _ = run(capsys, "render", "--size", "1")
    assert code == 0
    assert out == "+---+\n|   |\n+---+\n"


def test_render_takes_no_length(capsys):
    assert run(capsys, "render", "--size", "3", "--length", "4")[0] == 1
    assert run(capsys, "render", "--size", "3", "--cap", "4")[0] == 1


def test_render_bfs_overlay(capsys):
    from qmaze import bfs_shortest_path, generate_maze, is_open
    code, out, _ = run(capsys, "render", "--size", "3", "--seed", "11", "--bfs")
    assert code == 0
    maze = generate_maze(3, 11)
    route = bfs_shortest_path(maze, (0, 0), (2, 2))
    rooms = [(0, 0)]
    for d in route.path:
        assert is_open(maze, rooms[-1], d)
        rooms.append((rooms[-1][0] + d.delta[0], rooms[-1][1] + d.delta[1]))
    lines = out.splitlines()
    marked = set()
    for r in range(3):
        row = lines[2 * r + 1]
        for c in range(3):
            ch = row[4 * c + 2]
            if ch != " ":
                marked.add((r, c))
                assert ch in "S*E"
    assert marked == {tuple(room) for room in rooms}
