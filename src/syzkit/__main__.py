import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()  # a closed stdout raises here, not at exit
except BrokenPipeError:
    # Python flushes stdout again at exit; devnull takes that flush.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 1
raise SystemExit(code)
