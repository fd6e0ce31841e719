"""Shared test settings."""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a pass or failure does not depend on earlier runs.
settings.register_profile("fixed", derandomize=True, database=None, deadline=None,
                          max_examples=50)
settings.load_profile("fixed")
