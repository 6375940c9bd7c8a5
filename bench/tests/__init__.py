"""Tests of the benchmark itself: ``python -m pytest bench/tests`` (not
part of the tier-1 ``testpaths``)."""
