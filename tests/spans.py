"""Reading the spans a test recorded."""


def spans_named(tracer, name: str) -> list:
    """The tracer's buffered spans called ``name``, oldest first."""
    return [r for r in tracer.spans() if r.name == name]
