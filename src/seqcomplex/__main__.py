"""``python -m seqcomplex``: the command line, as the installed script runs it."""

from .cli import main

raise SystemExit(main())
