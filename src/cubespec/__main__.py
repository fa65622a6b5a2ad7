"""Run the command line as ``python -m cubespec``."""

from cubespec.cli import console_main

if __name__ == "__main__":
    console_main()
