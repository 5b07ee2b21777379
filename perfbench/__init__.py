"""End-to-end benchmark of the repository: see ``perfbench/README.md``."""
