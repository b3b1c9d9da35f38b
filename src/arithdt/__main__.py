"""``python -m arithdt``: the same command-line tool as the console script."""

from .cli import main

if __name__ == "__main__":
    main()
