"""Test helpers: read counters out of a metrics registry."""

from repro.obs import counter_value


def count(registry, name, **labels):
    """Sum of every counter series ``name`` matching the label subset."""
    return counter_value(registry.snapshot(), name, **labels)


def counted(registry, run):
    """``run()``'s result plus a reader of the counter deltas it left."""
    before = registry.snapshot()
    result = run()
    after = registry.snapshot()

    def delta(name, **labels):
        return counter_value(after, name, **labels) - counter_value(
            before, name, **labels
        )

    return result, delta
