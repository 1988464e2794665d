"""``python -m repro.service`` — the trace replay / durable-recover CLI."""

from .replay import main

if __name__ == "__main__":
    raise SystemExit(main())
