"""RL103 fixture: lane submissions whose futures are discarded.

Deliberately violating file — the lint self-test asserts RL103 flags
it.  Never imported; excluded from ruff (see pyproject.toml).
"""


async def fire_and_forget(lane, query, job):
    # VIOLATION: the returned future is dropped, so the job's result
    # and errors are lost.
    lane.submit(job)
    # VIOLATION: the citation's future is dropped the same way.
    lane.submit_cite(query)
    # OK: awaited.
    return await lane.submit_cite(query)
