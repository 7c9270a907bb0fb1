import sys

from repro.cli import main

raise SystemExit(main(["lint", *sys.argv[1:]]))
