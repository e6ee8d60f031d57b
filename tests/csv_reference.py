"""Reading back the CSV files that the command line writes."""

import csv
from pathlib import Path


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a CSV file, every field a string."""
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows
