"""Command-line front end: gen, solve, verify, bench, render.

Exit codes: 0 success, 1 usage/parameter error or out of memory, 2 I/O or
bad input file, 3 verification check failed.
"""

import argparse
import json
import os
import sys

from .fitness import (TableFormatError, build_fitness_table, fitness_ceiling,
                      load_table, save_table, walk)
from .maze import (Maze, MazeFormatError, _endpoints_in_grid, deserialize,
                   generate_maze, render_ascii, serialize, validate_perfect)
from .paths import DEFAULT_N_CAP, format_path, index_to_path, path_length
from .search import KNOWN_COUNT, UNKNOWN_COUNT, SearchConfig, search_table
from .verify import (bfs_consistency_check, bfs_shortest_path, exhaustive_max,
                     run_benchmark)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; this CLI reserves 2 for I/O errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_coord(text: str) -> tuple[int, int]:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"coordinate must be 'row,col', got {text!r}")
    return int(parts[0]), int(parts[1])


def _load_maze(args) -> Maze:
    if args.maze and args.size is not None:
        raise ValueError("give either --maze FILE or --size M, not both")
    if args.maze:
        with open(args.maze, "r", encoding="ascii") as fh:
            return deserialize(fh.read())
    if args.size is not None:
        return generate_maze(args.size, args.seed)
    raise ValueError("a maze is required: pass --maze FILE or --size M")


def _endpoints(args, maze: Maze):
    start = _parse_coord(args.start) if args.start else (0, 0)
    end = _parse_coord(args.end) if args.end else (maze.size - 1, maze.size - 1)
    _endpoints_in_grid(maze.size, start, end)
    return start, end


def _length(args, start, end) -> int:
    if args.length is not None:
        return args.length
    n = path_length(start, end)
    if n > args.cap:
        raise ValueError(
            f"the default length, twice the Manhattan distance from {start}"
            f" to {end}, is {n} and exceeds the cap {args.cap}; pass"
            f" --length N with N <= {args.cap}")
    return n


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        max_rounds=args.rounds,
        mode=args.mode,
        rng_seed=args.rng_seed,
        certificate_exit=not args.no_certificate,
    )


def _solve_table(args, maze, start, end, n):
    if args.fitness_table and os.path.exists(args.fitness_table):
        return load_table(args.fitness_table, maze, start, end, n, cap=args.cap)
    table = build_fitness_table(maze, start, end, n, cap=args.cap)
    if args.fitness_table:
        save_table(table, args.fitness_table, maze, start, end)
    return table


def cmd_gen(args) -> int:
    maze = generate_maze(args.size, args.seed)
    text = serialize(maze)
    summary = (f"maze {maze.size}x{maze.size} seed {maze.seed}:"
               f" {maze.size ** 2} rooms, {maze.open_door_count()} open doors")
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"{summary} -> {args.output}")
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    maze = _load_maze(args)
    start, end = _endpoints(args, maze)
    n = _length(args, start, end)
    table = _solve_table(args, maze, start, end, n)
    config = _search_config(args)
    result = search_table(table, config)
    best_steps = index_to_path(result.best_index, n)
    replay = walk(maze, start, end, best_steps)

    if args.format == "json":
        doc = {
            "maze": {"size": maze.size, "seed": maze.seed},
            "start": list(start),
            "end": list(end),
            "n": n,
            "num_states": 4**n,
            "d_max": table.d_max,
            "config": config.as_dict(),
            "result": result.as_dict(),
            "best_path": format_path(best_steps),
            "final_room": list(replay.final_room),
            "reached_end": replay.reached_end,
        }
        print(json.dumps(doc, indent=2))
    else:
        accepted = sum(rec.accepted for rec in result.history)
        print(f"maze {maze.size}x{maze.size} (seed {maze.seed}) |"
              f" start {start} -> end {end} | n={n} ({4 ** n} paths)")
        print(f"best fitness: {result.best_fitness} / {table.d_max}"
              + (" [optimal certificate]" if result.optimal else ""))
        print(f"best path: {format_path(best_steps) or '-'} -> final room"
              f" {tuple(replay.final_room)}, reached end: {replay.reached_end}")
        print(f"rounds: {result.rounds_used} ({accepted} accepted) |"
              f" oracle calls: {result.oracle_calls_total} | mode: {args.mode}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        maze = _load_maze(args)
    except MazeFormatError as exc:
        print(f"[FAIL] maze file invalid: {exc}")
        return EXIT_CHECK_FAILED
    start, end = _endpoints(args, maze)
    n = _length(args, start, end)

    failures = 0
    perfect = validate_perfect(maze)
    print(f"[{'ok' if perfect else 'FAIL'}] perfect maze"
          f" (symmetric doors, connected, {maze.size ** 2 - 1} door pairs)")
    if not perfect:
        return EXIT_CHECK_FAILED

    bfs = bfs_shortest_path(maze, start, end)
    print(f"[ok] shortest route {start} -> {end}: {bfs.distance} steps"
          f" ({format_path(bfs.path) or '-'})")

    table = build_fitness_table(maze, start, end, n, cap=args.cap)
    idx, val = exhaustive_max(table)
    at_ceiling = val == fitness_ceiling(maze.size)
    print(f"[ok] exhaustive maximum over {4 ** n} paths: fitness {val}"
          f" at index {idx} ({format_path(index_to_path(idx, n)) or '-'})")

    if bfs.distance <= n:
        consistent = bfs_consistency_check(maze, start, end, n, table)
        if not consistent:
            failures += 1
        print(f"[{'ok' if consistent else 'FAIL'}] padded shortest route scores"
              f" {fitness_ceiling(maze.size)} in the table")
        if consistent and not at_ceiling:
            failures += 1
            print("[FAIL] table maximum disagrees with reachable end room")
    else:
        print(f"[n/a] shortest route needs {bfs.distance} steps > n={n};"
              " consistency check not applicable")

    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_bench(args) -> int:
    maze = _load_maze(args)
    start, end = _endpoints(args, maze)
    n = _length(args, start, end)
    report = run_benchmark(maze, start, end, n, _search_config(args),
                           args.trials, cap=args.cap)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(f"bench: {report.trials} trials | maze {maze.size}x{maze.size}"
              f" seed {maze.seed} | n={n} ({report.num_states} paths)"
              f" | mode {args.mode}")
        for rec in report.records:
            print(f"  seed {rec.seed}: fitness {rec.best_fitness}"
                  f" {'(optimal)' if rec.optimal else '         '}"
                  f" rounds {rec.rounds:3d} oracle calls {rec.oracle_calls:5d}"
                  f" {'hit' if rec.success else 'MISS'}")
        print(f"success rate: {report.success_rate:.2%}"
              f" | mean rounds: {report.mean_rounds:.2f}"
              f" | mean oracle calls: {report.mean_oracle_calls:.1f}"
              f" (= {report.sqrt_cost_factor:.2f} * sqrt(N))")
    return EXIT_OK


def cmd_render(args) -> int:
    maze = _load_maze(args)
    marks = None
    if args.bfs:
        start, end = _endpoints(args, maze)
        bfs = bfs_shortest_path(maze, start, end)
        row, col = start
        marks = {(row, col): "S"}
        for d in bfs.path:
            row, col = row + d.delta[0], col + d.delta[1]
            marks[(row, col)] = "*"
        marks[(row, col)] = "E"
    print(render_ascii(maze, marks))
    return EXIT_OK


def _add_maze_source(parser):
    parser.add_argument("--maze", "-i", metavar="FILE",
                        help="read the maze from FILE (text format)")
    parser.add_argument("--size", "-m", type=int, metavar="M",
                        help="generate an MxM maze on the fly instead")
    parser.add_argument("--seed", type=int, default=0,
                        help="maze generation seed (with --size; default 0)")


def _add_endpoints(parser):
    parser.add_argument("--start", metavar="R,C",
                        help="start room (default 0,0)")
    parser.add_argument("--end", metavar="R,C",
                        help="end room (default bottom-right corner)")


def _add_length(parser):
    parser.add_argument("--length", "-n", type=int, metavar="N",
                        help="path length override (default: twice the"
                             " Manhattan distance)")
    parser.add_argument("--cap", type=int, default=DEFAULT_N_CAP,
                        help=f"refuse path lengths above this (default"
                             f" {DEFAULT_N_CAP})")


def _add_search_opts(parser):
    parser.add_argument("--mode", choices=[KNOWN_COUNT, UNKNOWN_COUNT],
                        default=KNOWN_COUNT,
                        help="iteration-count policy (default known_count)")
    parser.add_argument("--rounds", type=int, metavar="K",
                        help="round budget (default: fitness register width)")
    parser.add_argument("--rng-seed", type=int, default=0,
                        help="search RNG seed (default 0)")
    parser.add_argument("--no-certificate", action="store_true",
                        help="disable the empty-marked-set early exit")
    parser.add_argument("--format", choices=["text", "json"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qmaze",
                     description="Maze solving as an amplified maximum search,"
                                 " each measurement sampled from Grover's"
                                 " closed form.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a perfect maze")
    p.add_argument("--size", "-m", type=int, required=True, metavar="M")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", metavar="FILE",
                   help="write the maze here (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="search for the best path")
    _add_maze_source(p)
    _add_endpoints(p)
    _add_length(p)
    _add_search_opts(p)
    p.add_argument("--fitness-table", metavar="FILE",
                   help="binary fitness-table cache: loaded if present,"
                        " written otherwise")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the classical ground-truth checks")
    _add_maze_source(p)
    _add_endpoints(p)
    _add_length(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="multi-trial success/cost benchmark")
    _add_maze_source(p)
    _add_endpoints(p)
    _add_length(p)
    _add_search_opts(p)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="print the maze as ASCII walls")
    _add_maze_source(p)
    _add_endpoints(p)
    p.add_argument("--bfs", action="store_true",
                   help="overlay the shortest route between start and end")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MazeFormatError as exc:
        print(f"error: bad maze file: {exc}", file=sys.stderr)
        return EXIT_IO
    except TableFormatError as exc:
        print(f"error: bad fitness table file: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print("error: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
