from hypothesis import settings

# CPU speed on shared machines swings widely, so a per-example deadline
# would flake; the example budget keeps the suite's wall time bounded.
settings.register_profile("coxcat", deadline=None, max_examples=100)
settings.load_profile("coxcat")
