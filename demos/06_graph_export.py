"""Graph exports: the Cayley graph on the marks and the flag graph.

Both exports are plain DOT (or JSON) for downstream rendering.  Edge
styles encode the mark: x bold, y solid, s dashed, t dotted; the flag
graph labels its three involutions rho0, rho1, rho2.

This demo drives the command line interface in-process and prints the
beginning of each export.
"""

import tempfile
from pathlib import Path

from ebrmaps.cli import main as cli_main
from ebrmaps.families import dh1
from ebrmaps.maps import map_file_text


def head(path, n=12):
    lines = Path(path).read_text().splitlines()
    for line in lines[:n]:
        print("   ", line)
    print(f"    ... ({len(lines)} lines total)")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        map_file = Path(tmp) / "dh1-3.map"
        map_file.write_text(map_file_text(dh1(3).text))
        print("map file:")
        print(map_file.read_text())

        cayley = Path(tmp) / "cayley.dot"
        code = cli_main(["export", "cayley", str(map_file), "--out", str(cayley)])
        print(f"export cayley -> exit {code}")
        head(cayley)

        flags = Path(tmp) / "flags.dot"
        code = cli_main(["export", "flags", str(map_file), "--out", str(flags)])
        print(f"\nexport flags -> exit {code}")
        head(flags)

        as_json = Path(tmp) / "cayley.json"
        code = cli_main([
            "export", "cayley", str(map_file), "--format", "json", "--out", str(as_json)
        ])
        print(f"\nexport cayley (json) -> exit {code}")
        head(as_json, n=8)

        print("\ninvariants via the CLI:")
        cli_main(["invariants", str(map_file)])


if __name__ == "__main__":
    main()
