"""Run one ``planarflows`` command and report when each stage finished.

Usage: ``python cli_child.py <command> [options]`` with the repository's
``src`` on ``PYTHONPATH``.  Behaves like ``python -m planarflows.cli`` and
then appends MARKER and a JSON list of three ``time.monotonic()`` stamps to
standard error: interpreter up, ``planarflows.cli`` imported, ``main``
returned.  The traced cli run uses it to split a command's wall time.
"""

import time

MARKER = "\ncli_child_times "

if __name__ == "__main__":
    up = time.monotonic()
    import json
    import sys

    from planarflows import cli

    imported = time.monotonic()
    code = cli.main(sys.argv[1:])
    done = time.monotonic()
    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps([up, imported, done]))
    sys.exit(code)
