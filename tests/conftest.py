"""Tier-1 writes no bytecode caches under src/, so that a later fresh-import
timing of this checkout compiles the package from source, as on a clean one."""
import sys

sys.dont_write_bytecode = True
