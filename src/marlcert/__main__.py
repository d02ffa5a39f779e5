"""``python -m marlcert``: the same entry point as the ``marlcert`` script."""

import sys

from marlcert.cli import main

sys.exit(main())
