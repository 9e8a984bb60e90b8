"""Program-side set-up of each workload.

Shared by the in-process run and the fresh-process set-up probe. Nothing
is imported at module level, so a probe's clock covers every import the
program itself makes.
"""

HAAR_AXES = 16386  # +/-z plus 2**14 XY phases: a 14-bit drive-phase word
HAAR_EPS = (1e-4, 1e-8, 1e-12)


def import_program(with_cli: bool):
    import importlib

    pg = importlib.import_module("pulsegate")
    if with_cli:
        importlib.import_module("pulsegate.cli")
    return pg


def setup_paper_grid(pg):
    bench = pg.bench
    return {
        "dataset": pg.evaluation_dataset(),
        "axes": {n: pg.allowed_axes(n) for n in bench.DEFAULT_AXES_LIST},
        "configs": {eps: pg.GreedyConfig(eps_target=eps) for eps in bench.DEFAULT_EPS_LIST},
    }


def setup_haar_fine_phase(pg):
    return {
        "axes": pg.allowed_axes(HAAR_AXES),
        "configs": {eps: pg.GreedyConfig(eps_target=eps) for eps in HAAR_EPS},
    }


def setup_cli_roundtrip(pg):
    return {"cli": pg.cli}


# workload -> (imports pulsegate.cli, set-up function)
SETUPS = {
    "paper-grid": (False, setup_paper_grid),
    "haar-fine-phase": (False, setup_haar_fine_phase),
    "cli-roundtrip": (True, setup_cli_roundtrip),
}


def setup(workload: str):
    with_cli, fn = SETUPS[workload]
    pg = import_program(with_cli)
    return pg, fn(pg)
