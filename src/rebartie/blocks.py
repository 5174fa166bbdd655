"""The threads that the block-parallel stages (matcher, SOR) run on."""

import os


def run_striped(starts, make_scratch, work):
    """work(scratch, starts[t::threads]) on each of min(CPUs the process may
    use, len(starts)) threads; starts must not be empty. Each scratch is
    make_scratch(), called here: what a worker thread allocates itself stays
    in its malloc arena after the thread ends, and adds to the process's
    peak. A worker's error is raised here; no scratch outlives the call."""
    # imported here: concurrent.futures, with the logging it imports, adds
    # several ms to every subcommand's start-up
    from concurrent.futures import ThreadPoolExecutor

    threads = min(len(os.sched_getaffinity(0)), len(starts))
    scratch = [make_scratch() for _ in range(threads)]
    with ThreadPoolExecutor(threads) as pool:
        # reading each result re-raises a thread's error
        list(pool.map(work, scratch, [starts[t::threads] for t in range(threads)]))
