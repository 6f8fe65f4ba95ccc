"""The tests train in-process through ``spellcap.cli.main``, so they take the
``spellcap`` command's BLAS thread policy; pytest loads this file before any
test module imports numpy."""

from spellcap.__main__ import limit_blas_threads

limit_blas_threads()
