"""`python -m nftrace`: the `nf` command line."""

import sys

from nftrace.cli import main

if __name__ == "__main__":
    sys.exit(main())
