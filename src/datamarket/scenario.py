"""Scenario documents: parsing, canonical serialization, seeded generation.

The on-disk format is JSON with an explicit schema_version.  Serialization is
canonical (fixed key order, sections sorted by id, shortest round-trip float
representation), so parse -> serialize -> parse is the identity and derived
parameters reproduce exactly from a saved document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .effort import _CLOSED_FORMS, EffortMap, EffortSet, EffortVarianceModel
from .errors import (
    DomainError,
    GenerationError,
    InfeasibleSpecError,
    ParseError,
    ShapeError,
)
from .estimators import EstimatorSpec, QueryDistribution, trial_stream
from .market import (
    MODE_DIRECT,
    MODE_ESTIMATOR,
    AggregatorSpec,
    DataSourceSpec,
    GroundTruth,
    MarketScenario,
    _net_demand,
    _pair_index,
    _relevance,
    validate_scenario,
)

SCHEMA_VERSION = 1

_TOP_FIELDS = {"schema_version", "mode", "ground_truth", "sources",
               "aggregators", "direct_parameters"}
_SOURCE_FIELDS = {"id", "feature", "effort", "sharing"}
_AGG_FIELDS = {"id", "estimator", "query_distribution", "zeta", "eta"}
#: The closed-form families by document name, and the names generation takes.
_FAMILIES = {form.name: form for form in _CLOSED_FORMS.values()}
_GENERATED_FAMILIES = (*_FAMILIES, "mixed")
#: Every effort field; a family reads "family", "sigma0", "set" and its own rate.
_EFFORT_FIELDS = {"family", "sigma0", "set", *(form.rate for form in _FAMILIES.values())}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _expect(mapping, key, types, location, default=_TOP_FIELDS):
    """mapping[key] checked against `types`; types=float asks for a finite
    number (see _number).  Booleans pass only where types is bool."""
    if key not in mapping:
        if default is not _TOP_FIELDS:
            return default
        raise ParseError(f"missing field {key!r}", location=location)
    value = mapping[key]
    if types is float:
        return _number(value, key, location)
    if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
        raise ParseError(f"field {key!r} has type {type(value).__name__}",
                         location=location)
    return value


def _number(value, name, location) -> float:
    """A finite JSON number as a float; booleans, strings, NaN and infinities
    raise ParseError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field {name!r} has type {type(value).__name__}",
                         location=location)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"field {name!r} must be a finite number, got {number}",
                         location=location)
    return number


def _numbers(values, name, location) -> tuple[float, ...]:
    return tuple(_number(v, f"{name}[{k}]", location) for k, v in enumerate(values))


def _numbers_by_id(doc, key, location) -> dict[str, float]:
    """doc[key]: an object of finite numbers keyed by id."""
    table, location = _expect(doc, key, dict, location), f"{location}.{key}"
    return {name: _number(v, name, location) for name, v in table.items()}


def _pairs_by_id(doc, key, location) -> dict[tuple[str, str], float]:
    """doc[key]: an object of _numbers_by_id rows keyed by source id."""
    rows = _expect(doc, key, dict, location)
    return {(sid, bid): v for sid in rows
            for bid, v in _numbers_by_id(rows, sid, f"{location}.{key}").items()}


def _no_unknown_fields(mapping, allowed, location):
    """The parser's object check: mapping is an object with fields in allowed."""
    if not isinstance(mapping, dict):
        raise ParseError(f"must be an object, not {type(mapping).__name__}",
                         location=location)
    unknown = set(mapping) - allowed
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}", location=location)


def _parse_effort(doc, location) -> EffortVarianceModel:
    """Reads exactly the fields _effort_to_dict writes: the family's own
    rate field (not another family's), and e_max only in a bounded set."""
    _no_unknown_fields(doc, _EFFORT_FIELDS, location)
    family = _expect(doc, "family", str, location)
    form = _FAMILIES.get(family)
    if form is not None:
        _no_unknown_fields(doc, {"family", "sigma0", "set", form.rate}, location)
    set_doc = _expect(doc, "set", dict, location, default={"kind": "unbounded"})
    kind = _expect(set_doc, "kind", str, f"{location}.set")
    _no_unknown_fields(set_doc, {"kind", "e_max"} if kind == "bounded" else {"kind"},
                       f"{location}.set")
    try:
        if kind == "bounded":
            effort_set = EffortSet("bounded", e_max=_expect(
                set_doc, "e_max", float, f"{location}.set"))
        else:
            effort_set = EffortSet(kind)
        sigma0 = _expect(doc, "sigma0", float, location)
        if form is None:
            raise ParseError(f"unknown effort family {family!r}", location=location)
        return EffortVarianceModel(
            form.cls(sigma0, _expect(doc, form.rate, float, location)), effort_set)
    except DomainError as exc:
        raise ParseError(str(exc), location=location) from exc


def _parse_source(doc, index) -> DataSourceSpec:
    location = f"sources[{index}]"
    _no_unknown_fields(doc, _SOURCE_FIELDS, location)
    sid = _expect(doc, "id", str, location)
    feature = _numbers(_expect(doc, "feature", list, location), "feature", location)
    sharing = _expect(doc, "sharing", list, location)
    for j, b in enumerate(sharing):
        if not isinstance(b, str):
            raise ParseError(f"field 'sharing[{j}]' has type {type(b).__name__}", location=location)
    effort = _parse_effort(_expect(doc, "effort", dict, location),
                           f"{location}.effort")
    try:
        return DataSourceSpec(sid, feature, effort, tuple(sharing))
    except (DomainError, TypeError, ValueError) as exc:
        raise ParseError(str(exc), location=location) from exc


def _parse_aggregator(doc, index) -> AggregatorSpec:
    location = f"aggregators[{index}]"
    _no_unknown_fields(doc, _AGG_FIELDS, location)
    bid = _expect(doc, "id", str, location)
    kind = _expect(doc, "estimator", str, location, default="ols_with_intercept")
    atoms_doc = _expect(doc, "query_distribution", list, location)
    atoms = []
    for k, atom in enumerate(atoms_doc):
        aloc = f"{location}.query_distribution[{k}]"
        _no_unknown_fields(atom, {"point", "probability"}, aloc)
        point = _numbers(_expect(atom, "point", list, aloc), "point", aloc)
        atoms.append((point, _expect(atom, "probability", float, aloc)))
    zeta_doc = _expect(doc, "zeta", dict, location, default={})
    zeta = {str(j): _number(z, f"zeta[{j}]", location) for j, z in zeta_doc.items()}
    eta = _expect(doc, "eta", float, location, default=1.0)
    try:
        return AggregatorSpec(bid, EstimatorSpec(kind),
                              QueryDistribution(tuple(atoms)),
                              zeta=zeta, payment_scale=eta)
    except (DomainError, ShapeError) as exc:  # ShapeError: atoms of mixed dimensions
        raise ParseError(str(exc), location=location) from exc


def _parse_direct_tables(doc):
    location = "direct_parameters"
    _no_unknown_fields(doc, {"beta", "xi"}, location)
    beta = _pairs_by_id(doc, "beta", location)
    xi_doc = _expect(doc, "xi", dict, location)
    return beta, {bid: _pairs_by_id(xi_doc, bid, f"{location}.xi") for bid in xi_doc}


def _load_json(text: str, what: str):
    """json.loads(text); malformed JSON (located by line), an integer literal
    too long to convert and nesting too deep to decode raise ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: {exc}", location=f"line {exc.lineno}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def parse_scenario(text: str) -> MarketScenario:
    """Parse and validate a scenario document; structured ParseError on any
    malformation, naming the offending field."""
    doc = _load_json(text, "not valid JSON")
    _no_unknown_fields(doc, _TOP_FIELDS, "document")
    version = _expect(doc, "schema_version", int, "document")
    if version != SCHEMA_VERSION:
        raise ParseError(f"schema_version {version} unsupported "
                         f"(expected {SCHEMA_VERSION})", location="document")
    mode = _expect(doc, "mode", str, "document", default=MODE_ESTIMATOR)
    gt_doc = _expect(doc, "ground_truth", dict, "document")
    _no_unknown_fields(gt_doc, {"coefficients", "intercept"}, "ground_truth")
    ground_truth = GroundTruth(
        _numbers(_expect(gt_doc, "coefficients", list, "ground_truth"),
                 "coefficients", "ground_truth"),
        _expect(gt_doc, "intercept", float, "ground_truth"))

    sources_doc = _expect(doc, "sources", list, "document")
    sources = tuple(_parse_source(s, k) for k, s in enumerate(sources_doc))
    agg_doc = _expect(doc, "aggregators", list, "document")
    aggregators = tuple(_parse_aggregator(a, k) for k, a in enumerate(agg_doc))
    direct_beta = direct_xi = None
    if "direct_parameters" in doc:
        direct_beta, direct_xi = _parse_direct_tables(doc["direct_parameters"])
    try:
        return MarketScenario(sources, aggregators, ground_truth, mode=mode,
                              direct_beta=direct_beta, direct_xi=direct_xi)
    except DomainError as exc:
        raise ParseError(str(exc), location="document") from exc


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _effort_to_dict(model: EffortVarianceModel) -> dict:
    form = _CLOSED_FORMS.get(type(model.family))
    if form is None:
        raise DomainError("custom effort families are not serializable")
    sigma0, rate = vars(model.family).values()
    out = {"family": form.name, "sigma0": sigma0, form.rate: rate}
    eset = model.effort_set
    out["set"] = ({"kind": "bounded", "e_max": eset.e_max}
                  if eset.bounded else {"kind": "unbounded"})
    return out


def _nest(table: dict[tuple[str, str], float]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for (first, second), v in sorted(table.items()):
        out.setdefault(first, {})[second] = v
    return out


def scenario_to_dict(scenario: MarketScenario) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": scenario.mode,
        "ground_truth": {
            "coefficients": list(scenario.ground_truth.coefficients),
            "intercept": scenario.ground_truth.intercept,
        },
        "sources": [
            {
                "id": s.id,
                "feature": list(s.feature),
                "effort": _effort_to_dict(s.effort_model),
                "sharing": list(s.sharing),
            }
            for s in scenario.sources
        ],
        "aggregators": [
            {
                "id": a.id,
                "estimator": a.estimator.kind,
                "query_distribution": [
                    {"point": list(p), "probability": w} for p, w in a.query_dist.atoms
                ],
                "zeta": {j: a.zeta[j] for j in sorted(a.zeta)},
                "eta": a.payment_scale,
            }
            for a in scenario.aggregators
        ],
    }
    if scenario.mode == MODE_DIRECT:
        doc["direct_parameters"] = {
            "beta": _nest(scenario.direct_beta),
            "xi": {bid: _nest(scenario.direct_xi[bid]) for bid in sorted(scenario.direct_xi)},
        }
    return doc


def serialize_scenario(scenario: MarketScenario) -> str:
    """Canonical document text: fixed key order, id-sorted sections,
    full-precision decimals."""
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerationSpec:
    n_sources: int
    n_aggregators: int
    dimension: int = 1
    family: str = "exponential"     # a name in _GENERATED_FAMILIES
    bounded: bool = False
    coupling_scale: float = 0.3     # direct mode only
    sharing_density: float = 1.0
    zeta_max: float = 0.3
    mode: str = MODE_ESTIMATOR

    def __post_init__(self):
        if self.n_sources < 1 or self.n_aggregators < 1:
            raise InfeasibleSpecError("need at least one source and one aggregator")
        if self.dimension < 1:
            raise InfeasibleSpecError("dimension must be at least 1")
        if self.mode not in (MODE_ESTIMATOR, MODE_DIRECT):
            raise InfeasibleSpecError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_ESTIMATOR and self.n_sources < self.dimension + 2:
            raise InfeasibleSpecError(
                f"estimator mode needs n_sources >= dimension + 2 "
                f"(= {self.dimension + 2}) so leave-one-out designs stay "
                f"invertible; got {self.n_sources}")
        if self.family not in _GENERATED_FAMILIES:
            raise InfeasibleSpecError(f"unknown effort family {self.family!r}")
        if not 0.0 < self.sharing_density <= 1.0:
            raise InfeasibleSpecError("sharing density must lie in (0, 1]")
        if not 0.0 <= self.zeta_max <= 1.0:
            raise InfeasibleSpecError("zeta_max must lie in [0, 1]")
        if not 0.0 <= self.coupling_scale < math.inf:
            raise InfeasibleSpecError("coupling_scale must be finite and nonnegative")


MAX_GENERATION_ATTEMPTS = 60


def _draw_model(spec: GenerationSpec, rng, a_lower_target: float) -> EffortVarianceModel:
    """Family with its minimum incentive placed at a_lower_target, so demand
    clears the participation region whatever the market size; in both
    families a_lower = 1/(2*rate*sigma0^2)."""
    family = spec.family
    if family == "mixed":
        family = "exponential" if rng.uniform() < 0.5 else "inverse_power"
    rate = float(rng.uniform(0.3 if family == "exponential" else 0.5, 3.0))
    sigma0 = math.sqrt(1.0 / (2.0 * rate * a_lower_target))
    return EffortVarianceModel(_FAMILIES[family].cls(sigma0, rate))


def _draw_sharing(spec: GenerationSpec, rng, sids, bids):
    sharing = {sid: [bid for bid in bids if rng.uniform() < spec.sharing_density]
               for sid in sids}
    for sid in sids:
        if not sharing[sid]:
            sharing[sid] = [bids[int(rng.integers(0, len(bids)))]]
    if spec.mode == MODE_ESTIMATOR:
        need = spec.dimension + 2
        for bid in bids:
            holders = [sid for sid in sids if bid in sharing[sid]]
            missing = need - len(holders)
            if missing > 0:
                outsiders = [sid for sid in sids if bid not in sharing[sid]]
                picks = rng.permutation(len(outsiders))[:missing]
                for p in picks:
                    sharing[outsiders[int(p)]].append(bid)
    return {sid: tuple(sorted(set(v))) for sid, v in sharing.items()}


def _latin_features(rng, n: int, d: int) -> np.ndarray:
    """Jittered per-axis grids: spread points keep design and leave-one-out
    Gram matrices well conditioned far more often than i.i.d. uniforms."""
    coords = np.empty((n, d))
    for axis in range(d):
        order = rng.permutation(n)
        offsets = rng.uniform(0.1, 0.9, size=n)
        coords[:, axis] = -2.0 + 4.0 * (order + offsets) / n
    return coords


def _attempt(spec: GenerationSpec, rng) -> MarketScenario:
    sids = [f"s{k + 1:03d}" for k in range(spec.n_sources)]
    bids = [f"b{k + 1:03d}" for k in range(spec.n_aggregators)]
    features = _latin_features(rng, spec.n_sources, spec.dimension)
    sharing = _draw_sharing(spec, rng, sids, bids)
    membership = np.array([[bid in sharing[sid] for bid in bids] for sid in sids])
    pair_source, pair_aggregator, aggregator_pairs, members = _pair_index(membership)

    aggregators = []
    for k, bid in enumerate(bids):
        points = features[members[k]]
        n_atoms = int(rng.integers(1, 4))
        atoms = []
        weights = rng.dirichlet(np.ones(n_atoms))
        for w in weights:
            # queries mix dataset points so relevance is spread over sources
            mix = rng.dirichlet(np.ones(len(points)))
            point = tuple(float(c) for c in mix @ points)
            atoms.append((point, float(w)))
        zeta = {j: float(rng.uniform(0.0, spec.zeta_max)) for j in bids if j != bid}
        aggregators.append(AggregatorSpec(bid, EstimatorSpec(),
                                          QueryDistribution(tuple(atoms)), zeta))
    ground_truth = GroundTruth(tuple(float(c) for c in
                                     rng.uniform(-2.0, 2.0, size=spec.dimension)),
                               float(rng.uniform(-1.0, 1.0)))

    direct_beta = direct_xi = None
    if spec.mode == MODE_DIRECT:
        direct_beta = {(sid, bid): float(rng.uniform(0.5, 2.0))
                       for sid in sids for bid in sharing[sid]}
        beta = np.array(list(direct_beta.values()))  # sharing-pair order
        datasets = [[sids[i] for i in rows.tolist()] for rows in members]
        direct_xi = {
            bid: {(i, l): 1.0 if i == l else float(rng.uniform(0.0, spec.coupling_scale))
                  for i in ds for l in ds}
            for bid, ds in zip(bids, datasets)}
    else:
        # relevance is pure geometry, derivable before any effort family exists
        beta = _relevance(features, aggregator_pairs, members, aggregators)
    gamma_total = dict(zip(sids, _net_demand(beta, membership, pair_source, pair_aggregator,
                                             aggregators)[1].tolist()))
    if min(gamma_total.values()) <= 0:
        raise DomainError("competition cancelled some source's demand")  # retried

    # minimum incentives sized a random fraction below each total demand
    models = {sid: _draw_model(spec, rng,
                               gamma_total[sid] * float(rng.uniform(0.05, 0.6)))
              for sid in sids}
    if spec.bounded:
        # caps a random factor above total demand satisfy the saturation
        # hypothesis by construction
        a_upper = [gamma_total[sid] * float(rng.uniform(1.1, 2.5)) for sid in sids]
        e_max = EffortMap([models[sid] for sid in sids]).efforts(a_upper).tolist()
        models = {sid: EffortVarianceModel(models[sid].family, EffortSet("bounded", e_max=e))
                  for sid, e in zip(sids, e_max)}
    sources = tuple(DataSourceSpec(sid, tuple(map(float, features[k])), models[sid],
                                   sharing[sid])
                    for k, sid in enumerate(sids))
    return MarketScenario(sources, tuple(aggregators), ground_truth,
                          mode=spec.mode, direct_beta=direct_beta,
                          direct_xi=direct_xi)


def generate_scenario(spec: GenerationSpec, seed: int) -> MarketScenario:
    """Deterministic random scenario guaranteed to pass validation.

    Attempt k draws from the substream SeedSequence(entropy=seed,
    spawn_key=(k,)); the first draw whose validation report is clean is
    returned, so identical (spec, seed) always yield identical documents.
    Raises GenerationError (with the attempt count) if the retry budget is
    exhausted.
    """
    scenario, _ = generate_scenario_with_attempts(spec, seed)
    return scenario


def generate_scenario_with_attempts(spec: GenerationSpec, seed: int
                                    ) -> tuple[MarketScenario, int]:
    """generate_scenario with the number of attempts it took.  A negative
    seed raises InfeasibleSpecError."""
    if seed < 0:
        raise InfeasibleSpecError(f"seed must be a nonnegative integer, got {seed}")
    last_failure = "no attempt recorded"
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        try:
            scenario = _attempt(spec, trial_stream(seed, attempt))
        except DomainError as exc:
            last_failure = str(exc)
            continue
        report = validate_scenario(scenario)
        if report.ok:
            return scenario, attempt + 1
        last_failure = "; ".join(v.message for v in report.violations[:3])
    raise GenerationError(
        f"no valid scenario in {MAX_GENERATION_ATTEMPTS} attempts for "
        f"spec {spec} seed {seed} (last failure: {last_failure})",
        attempts=MAX_GENERATION_ATTEMPTS)
