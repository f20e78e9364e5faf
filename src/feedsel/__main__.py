"""Run the command-line interface: ``python -m feedsel <subcommand> ...``."""

from .cli import main

if __name__ == "__main__":
    main()
