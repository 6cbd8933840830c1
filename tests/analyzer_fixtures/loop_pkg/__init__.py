"""RC106/RC112 fixture package: unbounded and budget-less loops a
serving tick reaches a file away (the tests load the files under
``src/repro/serve/...`` paths)."""
