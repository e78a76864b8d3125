"""``python -m saddlekit``: the command-line interface without an install."""

from .cli import main

raise SystemExit(main())
