"""Maze solving as an amplified maximum search, simulated classically.

Pipeline: generate a perfect maze, view every fixed-length direction
sequence as a basis state of a 4**n register, score each by walking it
through the maze, then repeatedly mark above-cutoff states with a phase
oracle and amplify them until the best-scoring path is measured. Each
measurement is sampled from the exact two-amplitude closed form of Grover
search, so no 4**n state is built. Classical BFS and exhaustive scans
double-check every stage.
"""

from .directions import DIRECTIONS, Direction, parse_direction
from .fitness import (FitnessTable, TableFormatError, WalkResult,
                      build_fitness_table, fitness_ceiling, load_table,
                      save_table, walk)
from .maze import (Maze, MazeFormatError, RoomCoord, deserialize,
                   generate_maze, generate_maze_with_log, is_open,
                   render_ascii, serialize, validate_perfect)
from .paths import (DEFAULT_N_CAP, format_path, index_to_path, parse_path,
                    path_length, path_to_index)
from .search import (KNOWN_COUNT, UNKNOWN_COUNT, IterationRecord,
                     SearchConfig, SearchResult, measure_amplified,
                     round_iterations, search_table)
from .verify import (BenchReport, BfsResult, TrialRecord,
                     bfs_consistency_check, bfs_shortest_path,
                     exhaustive_max, run_benchmark)

__version__ = "0.1.0"

__all__ = [
    "DIRECTIONS", "Direction", "parse_direction",
    "Maze", "MazeFormatError", "RoomCoord", "generate_maze",
    "generate_maze_with_log", "is_open", "validate_perfect", "serialize",
    "deserialize", "render_ascii",
    "DEFAULT_N_CAP", "path_length", "path_to_index", "index_to_path",
    "parse_path", "format_path",
    "WalkResult", "FitnessTable", "TableFormatError", "walk",
    "fitness_ceiling", "build_fitness_table", "save_table", "load_table",
    "KNOWN_COUNT", "UNKNOWN_COUNT", "SearchConfig", "IterationRecord",
    "SearchResult", "round_iterations", "measure_amplified", "search_table",
    "BfsResult", "TrialRecord", "BenchReport", "bfs_shortest_path",
    "exhaustive_max", "bfs_consistency_check", "run_benchmark",
    "__version__",
]
