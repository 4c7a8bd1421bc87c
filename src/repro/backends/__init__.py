"""Home of :func:`repro.backends.numpy_backend.take_batch`, the kernels'
unbuffered gather.

The trajectory kernels (:mod:`repro.noise.program`) call numpy directly;
this package holds only the one primitive that does more than one numpy
call.  It stays a module of its own because the benchmark's traced mode
(``perfbench/spans.py``) imports ``repro.backends.numpy_backend``; a change
to the benchmark can drop that import and move ``take_batch`` into
:mod:`repro.noise.program`.
"""
