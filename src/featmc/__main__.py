"""``python -m featmc``: the command line, as the ``featmc`` script runs it."""

from .cli import main

raise SystemExit(main())
