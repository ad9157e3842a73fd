from hypothesis import settings

# property tests draw the same examples on every run, so the suite stays
# deterministic and keeps no example database; examples are few because
# each one runs a PDE sweep
settings.register_profile("tcmerton", derandomize=True, database=None,
                          deadline=None, max_examples=100)
settings.load_profile("tcmerton")
