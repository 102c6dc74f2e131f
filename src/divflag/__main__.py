"""``python -m divflag``: the same command line as the ``divflag`` script."""

from .cli import main

if __name__ == "__main__":
    main()
