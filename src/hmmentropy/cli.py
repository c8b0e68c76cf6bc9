"""Command-line interface.

Data files are auto-detected as chain or tree input where both make sense.
Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure (impossible observation), 4 budget exceeded.
"""

import math
import sys
from pathlib import Path

import click
import numpy as np

# smooth_chain is not called here; perfbench/selftest.py checks that its
# tracer restores this name
from .chain import smooth_chain, smooth_dataset, viterbi_dataset  # noqa: F401
from .chain_entropy import entropy_future, entropy_past_hernando
from .criteria import CriterionInput, bic, free_parameter_count, icl_bic, nec
from .errors import (BudgetExceededError, DataFormatError,
                     ImpossibleObservationError, ValidationError)
from .fileio import (ProfileTable, detect_data_kind, parse_model,
                     parse_sequence, parse_tree, serialize_sequence,
                     serialize_tree, write_profile)
from .model import simulate_chain, simulate_tree, validate_model
from .numutil import entr, fsum
from .oracle import DEFAULT_CONFIG_BUDGET, enumerate_chain, enumerate_tree
from .tree import _constrained_maxima, _max_product, smooth_tree, viterbi_tree
from .tree_entropy import (DEFAULT_OP_BUDGET, _summary_of_sums,
                           children_conditional_profile,
                           parent_conditional_profile,
                           subtree_entropies_approach1, tree_entropy_profile)

_model_opt = click.option("--model", "model_file", required=True,
                          type=click.Path(exists=True, dir_okay=False),
                          help="Model JSON file.")
_data_opt = click.option("--data", "data_file", required=True,
                         type=click.Path(exists=True, dir_okay=False),
                         help="Sequence or tree data file.")
_out_opt = click.option("--out", "out_file", type=click.Path(dir_okay=False),
                        default=None, help="Write output here instead of stdout.")
_base_opt = click.option("--log-base", type=click.Choice(["e", "2"]),
                         default="e", show_default=True,
                         help="Output base for entropy values.")
_budget_opt = click.option("--budget", type=int, default=None,
                           help="Operation/configuration budget override.")


@click.group()
def cli():
    """State restoration and entropy profiles for hidden Markov models."""


def _emit(text: str, out_file):
    if out_file:
        Path(out_file).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _load_model(model_file):
    return parse_model(Path(model_file).read_text(encoding="utf-8"))


def _load_data(data_file):
    """Returns ('tree', ObservedTree) or ('chain', [ObservedSequence, ...])."""
    text = Path(data_file).read_text(encoding="utf-8")
    if detect_data_kind(text) == "tree":
        return "tree", parse_tree(text)
    return "chain", parse_sequence(text)


def _scalar_table(pairs, entropy_keys=(), log_base="e"):
    scale = 1.0 / math.log(2.0) if log_base == "2" else 1.0
    lines = []
    for key, value in pairs:
        if key in entropy_keys:
            value = value * scale
        if isinstance(value, float):
            lines.append(f"{key}\t{format(value, '.12g')}")
        else:
            lines.append(f"{key}\t{value}")
    return "\n".join(lines) + "\n"


def _id_table(kind, data):
    """A table of the columns that identify each row: vertex, parent and
    obs_k for a tree; sequence, index and obs_k for chains."""
    table = ProfileTable()
    if kind == "tree":
        table.add("vertex", np.arange(data.num_vertices))
        table.add("parent", data.topology.parent)
        values = data.values
    else:
        lengths = np.array([seq.length for seq in data])
        table.add("sequence", np.repeat(np.arange(lengths.size), lengths))
        table.add("index", np.arange(lengths.sum())
                  - np.repeat(np.cumsum(lengths) - lengths, lengths))
        values = np.concatenate([seq.values for seq in data])
    for k in range(values.shape[1]):
        table.add(f"obs_{k}", values[:, k])
    return table


def _chain_sums(model, data):
    """Posterior, H(S | X) and marginal entropy sum of a dataset."""
    post = smooth_dataset(model, data)
    g = entropy_past_hernando(model, data, post).global_entropy
    m = fsum(entr(post.smoothed).sum(axis=1))
    return post, g, m


@cli.command()
@_model_opt
def validate(model_file):
    """Check a model file against all invariants."""
    text = Path(model_file).read_text(encoding="utf-8")
    model = parse_model(text, check=False)
    report = validate_model(model)
    if report.ok:
        click.echo("ok")
        return
    for violation in report.violations:
        click.echo(violation)
    raise ValidationError(f"{len(report.violations)} violation(s)")


@cli.command()
@_model_opt
@_data_opt
@_out_opt
@_base_opt
def smooth(model_file, data_file, out_file, log_base):
    """Smoothed state probabilities (chain or tree, auto-detected)."""
    model = _load_model(model_file)
    kind, data = _load_data(data_file)
    if kind == "tree":
        smoothed = smooth_tree(model, data).smoothed
    else:
        smoothed = smooth_dataset(model, data).smoothed
    table = _id_table(kind, data)
    for j in range(model.num_states):
        table.add(f"smoothed_{j}", smoothed[:, j])
    _emit(write_profile(table, log_base), out_file)


@cli.command()
@_model_opt
@_data_opt
@_out_opt
def viterbi(model_file, data_file, out_file):
    """Most likely state restoration; log joint probabilities on stderr."""
    model = _load_model(model_file)
    kind, data = _load_data(data_file)
    if kind == "tree":
        states, log_joint = viterbi_tree(model, data)
        click.echo(f"log_joint\t{format(log_joint, '.12g')}", err=True)
    else:
        states, log_joints = viterbi_dataset(model, data)
        for s, log_joint in enumerate(log_joints.tolist()):
            click.echo(f"log_joint[{s}]\t{format(log_joint, '.12g')}", err=True)
    table = _id_table(kind, data)
    table.add("viterbi_state", states)
    _emit(write_profile(table), out_file)


@cli.command("viterbi-profiles")
@_model_opt
@_data_opt
@_out_opt
def viterbi_profiles_cmd(model_file, data_file, out_file):
    """Per vertex and state, the best posterior configuration probability."""
    model = _load_model(model_file)
    kind, data = _load_data(data_file)
    if kind != "tree":
        raise DataFormatError("viterbi-profiles requires tree input")
    states, _, m, best = _max_product(model, data)
    prof = _constrained_maxima(model, data, m, best)
    table = _id_table(kind, data)
    table.add("viterbi_state", states)
    for j in range(model.num_states):
        table.add(f"vprofile_{j}", prof[:, j])
    _emit(write_profile(table), out_file)


@cli.command()
@_model_opt
@_data_opt
@_out_opt
@_base_opt
@_budget_opt
@click.option("--cond", type=click.Choice(["past", "future", "parent",
                                           "children", "both"]),
              default=None, help="Conditioning direction: past|future for "
                                 "chains, parent|children|both for trees.")
def entropy(model_file, data_file, out_file, log_base, budget, cond):
    """Marginal/conditional/partial entropy profiles."""
    model = _load_model(model_file)
    kind, data = _load_data(data_file)
    if kind == "tree":
        cond = cond or "parent"
        if cond in ("past", "future"):
            raise click.UsageError("tree input takes --cond parent|children|both")
        post = smooth_tree(model, data)
        op_budget = budget if budget is not None else DEFAULT_OP_BUDGET
        smoothed = post.smoothed
        marginal = entr(smoothed).sum(axis=1)
        if cond == "children":
            columns = [("cond_entropy_children", children_conditional_profile(
                model, data, post, op_budget))]
        elif cond == "parent":
            pc = parent_conditional_profile(model, data, post)
            _, partial_subtree, complement, _ = subtree_entropies_approach1(
                model, data, post, pc)
            columns = [("cond_entropy_parent", pc),
                       ("partial_subtree_entropy", partial_subtree),
                       ("partial_complement_entropy", complement)]
        else:
            prof = tree_entropy_profile(model, data, post, op_budget)
            columns = [("cond_entropy_parent", prof.parent_conditional),
                       ("cond_entropy_children", prof.children_conditional),
                       ("partial_subtree_entropy", prof.partial_subtree),
                       ("partial_complement_entropy", prof.partial_complement)]
    else:
        cond = cond or "past"
        if cond not in ("past", "future"):
            raise click.UsageError("chain input takes --cond past|future")
        route = entropy_past_hernando if cond == "past" else entropy_future
        post = smooth_dataset(model, data)
        smoothed = post.smoothed
        prof = route(model, data, post)
        marginal = prof.marginal
        columns = [(f"cond_entropy_{cond}", prof.conditional),
                   (f"partial_entropy_{cond}", prof.partial)]
        # only these columns are written: free the other tables first
        del post, prof
    table = _id_table(kind, data)
    for j in range(model.num_states):
        table.add(f"smoothed_{j}", smoothed[:, j])
    table.add("marginal_entropy", marginal, entropy=True)
    for name, values in columns:
        table.add(name, values, entropy=True)
    _emit(write_profile(table, log_base), out_file)


@cli.command()
@_model_opt
@_out_opt
@click.option("--length", type=int, default=None, help="Simulate a chain of this length.")
@click.option("--topology", "topology_file", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Simulate over the tree topology of this data file.")
@click.option("--seed", type=int, required=True)
def simulate(model_file, out_file, length, topology_file, seed):
    """Draw observations from a model, over a chain or a tree topology."""
    model = _load_model(model_file)
    if (length is None) == (topology_file is None):
        raise click.UsageError("exactly one of --length and --topology is required")
    if length is not None:
        _, seq = simulate_chain(model, length, seed)
        _emit(serialize_sequence([seq]), out_file)
    else:
        tree = parse_tree(Path(topology_file).read_text(encoding="utf-8"))
        _, sim = simulate_tree(model, tree.topology, seed)
        _emit(serialize_tree(sim), out_file)


@cli.command()
@_model_opt
@_data_opt
@_out_opt
@click.option("--baseline-loglik", type=float, default=None,
              help="Log-likelihood of a 1-state baseline (enables NEC).")
def criteria(model_file, data_file, out_file, baseline_loglik):
    """BIC / ICL-BIC (and NEC given a baseline) over the whole dataset."""
    model = _load_model(model_file)
    kind, data = _load_data(data_file)
    if kind == "tree":
        post = smooth_tree(model, data)
        h = fsum(parent_conditional_profile(model, data, post))
        log_likelihood = post.log_likelihood
        sample_size = data.num_vertices
    else:
        post, h, _ = _chain_sums(model, data)
        log_likelihood = post.log_likelihood
        sample_size = len(post.smoothed)
    inp = CriterionInput(log_likelihood=log_likelihood, global_entropy=h,
                         free_params=free_parameter_count(model),
                         sample_size=sample_size,
                         log_likelihood_1=baseline_loglik)
    pairs = [("log_likelihood", log_likelihood),
             ("global_entropy", h),
             ("free_params", inp.free_params),
             ("sample_size", sample_size),
             ("bic", bic(inp)),
             ("icl_bic", icl_bic(inp))]
    if baseline_loglik is not None:
        pairs.append(("nec", nec(inp)))
    _emit(_scalar_table(pairs), out_file)


@cli.command()
@_model_opt
@_data_opt
@_out_opt
@_base_opt
@_budget_opt
def oracle(model_file, data_file, out_file, log_base, budget):
    """Exact enumeration summary of a small instance."""
    model = _load_model(model_file)
    kind, data = _load_data(data_file)
    config_budget = budget if budget is not None else DEFAULT_CONFIG_BUDGET
    if kind == "tree":
        results = [enumerate_tree(model, data, config_budget)]
    else:
        results = [enumerate_chain(model, seq, config_budget) for seq in data]
    pairs = []
    for s, res in enumerate(results):
        tag = f"[{s}]" if len(results) > 1 else ""
        pairs += [(f"num_configurations{tag}", res.configurations.shape[0]),
                  (f"evidence{tag}", res.evidence),
                  (f"log_evidence{tag}", math.log(res.evidence)),
                  (f"global_entropy{tag}", res.global_entropy())]
    entropy_keys = {k for k, _ in pairs if k.startswith("global_entropy")}
    _emit(_scalar_table(pairs, entropy_keys, log_base), out_file)


@cli.command()
@_model_opt
@_data_opt
@_out_opt
@_base_opt
@_budget_opt
def summary(model_file, data_file, out_file, log_base, budget):
    """G/C/M entropy sums and their relative gaps."""
    model = _load_model(model_file)
    kind, data = _load_data(data_file)
    if kind == "tree":
        post = smooth_tree(model, data)
        op_budget = budget if budget is not None else DEFAULT_OP_BUDGET
        g = fsum(parent_conditional_profile(model, data, post))
        c = fsum(children_conditional_profile(model, data, post, op_budget))
        m = fsum(entr(post.smoothed).sum(axis=1))
    else:
        # on a chain the children-conditional profile is the future
        # profile, which sums to H(S | X): C = G
        _, g, m = _chain_sums(model, data)
        c = g
    s = _summary_of_sums(g, c, m)
    pairs = [("global_entropy", s.g), ("g_parent_conditional_sum", s.g),
             ("c_children_conditional_sum", s.c), ("m_marginal_sum", s.m),
             ("ratio_cg", s.ratio_cg), ("ratio_mg", s.ratio_mg)]
    _emit(_scalar_table(pairs, {"global_entropy", "g_parent_conditional_sum",
                                "c_children_conditional_sum", "m_marginal_sum"},
                        log_base), out_file)


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, prog_name="hmmentropy", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (DataFormatError, ValidationError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (ImpossibleObservationError, FloatingPointError) as exc:
        click.echo(f"numerical error: {exc}", err=True)
        return 3
    except BudgetExceededError as exc:
        click.echo(f"budget error: {exc}", err=True)
        return 4
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
