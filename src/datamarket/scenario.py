"""Scenario documents: parsing, canonical serialization, seeded generation.

The on-disk format is JSON with an explicit schema_version.  Serialization is
canonical (fixed key order, sections sorted by id, shortest round-trip float
representation), so parse -> serialize -> parse is the identity and derived
parameters reproduce exactly from a saved document.  Tables keyed by id,
or by id pair, are read by _read_table and written by _table (each zeta
object by its _pair_objects), which result documents share.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quoted

import numpy as np

from .effort import _CUSTOM, _FORMS, EffortMap, EffortSet, EffortVarianceModel
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
    IdTable,
    MarketScenario,
    _demand_violations,
    _derivation,
    _net_demand,
    _pair_index,
    _relevance,
    _runs,
    _source_columns,
)

SCHEMA_VERSION = 1

_TOP_FIELDS = {"schema_version", "mode", "ground_truth", "sources",
               "aggregators", "direct_parameters"}
_SOURCE_FIELDS = {"id", "feature", "effort", "sharing"}
_AGG_FIELDS = {"id", "estimator", "query_distribution", "zeta", "eta"}
#: A closed-form family's code (see effort._FORMS), rate field and effort
#: fields, by document name; generation also takes "mixed".
_FAMILY_FIELDS = {form.name: (code, form.rate, {"family", "sigma0", form.rate, "set"})
                  for code, form in enumerate(_FORMS)}
_GENERATED_FAMILIES = (*_FAMILY_FIELDS, "mixed")
#: Every effort field; a family reads "family", "sigma0", "set" and its own rate.
_EFFORT_FIELDS = set().union(*(fields for _, _, fields in _FAMILY_FIELDS.values()))
#: The fields of an effort set, by kind.
_SET_FIELDS = {"unbounded": {"kind"}, "bounded": {"kind", "e_max"}}


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


def _finite(values: list) -> np.ndarray | None:
    """values as an array when every one is a finite float, else None."""
    if set(map(type, values)) != {float}:
        return None
    array = np.array(values)
    return array if np.isfinite(array).all() else None


def _read_table(doc, key: str, location: str, pairs: bool = False) -> IdTable:
    """doc[key]: an object of finite numbers keyed by id, or with `pairs` an
    object of such objects keyed by source id, as an IdTable in id order,
    read in one pass.  A table with a value that is not a finite float is
    read by _numbers_by_id, row by row for pairs, which names the field."""
    table = _expect(doc, key, dict, location)
    rows = table.values() if pairs else [table]
    if set(map(type, rows)) <= {dict}:
        array = _finite(list(itertools.chain.from_iterable(map(dict.values, rows))))
        if array is not None:
            return IdTable.of([(sid, bid) for sid, row in table.items() for bid in row]
                              if pairs else table, array)
    if not pairs:
        return IdTable.of(_numbers_by_id(doc, key, location))
    return IdTable.of({(sid, bid): v for sid in table
                       for bid, v in _numbers_by_id(table, sid, f"{location}.{key}").items()})


def _no_unknown_fields(mapping, allowed, location):
    """The parser's object check: mapping is an object with fields in allowed."""
    if not isinstance(mapping, dict):
        raise ParseError(f"must be an object, not {type(mapping).__name__}",
                         location=location)
    unknown = set(mapping) - allowed
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}", location=location)


def _parse_effort(doc, location) -> EffortVarianceModel:
    """Reads exactly the effort fields serialize_scenario writes: the family's own
    rate field (not another family's), and e_max only in a bounded set."""
    _no_unknown_fields(doc, _EFFORT_FIELDS, location)
    family = _expect(doc, "family", str, location)
    code, rate_field, fields = _FAMILY_FIELDS.get(family, (None, None, _EFFORT_FIELDS))
    _no_unknown_fields(doc, fields, location)
    set_doc = _expect(doc, "set", dict, location, default={"kind": "unbounded"})
    kind = _expect(set_doc, "kind", str, f"{location}.set")
    _no_unknown_fields(set_doc, _SET_FIELDS.get(kind, {"kind"}), f"{location}.set")
    try:
        if kind == "bounded":
            effort_set = EffortSet("bounded", e_max=_expect(
                set_doc, "e_max", float, f"{location}.set"))
        else:
            effort_set = EffortSet(kind)
        sigma0 = _expect(doc, "sigma0", float, location)
        if code is None:
            raise ParseError(f"unknown effort family {family!r}", location=location)
        return EffortVarianceModel(
            _FORMS[code].cls(sigma0, _expect(doc, rate_field, float, location)), effort_set)
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
    beta = _read_table(doc, "beta", location, pairs=True)
    xi_doc = _expect(doc, "xi", dict, location)
    return beta, {bid: _read_table(xi_doc, bid, f"{location}.xi", pairs=True) for bid in xi_doc}


def _read_columns(docs):
    """The sources list as MarketScenario's columns (ids, features, sharing,
    EffortMap), in id order, read in one pass with the types and the
    finiteness checked over whole columns.  None unless every entry is in
    the writer's own form and EffortMap accepts the effort parameters: then
    _parse_source reads the list entry by entry, and its ParseError names
    the first offending field."""
    ids, features, sharing, codes, sigma0, rate, e_max, numbers = ([] for _ in range(8))
    try:
        for doc in sorted(docs, key=operator.itemgetter("id")):
            effort = doc["effort"]
            code, rate_field, fields = _FAMILY_FIELDS[effort["family"]]
            set_doc = effort["set"]
            if (doc.keys() != _SOURCE_FIELDS or effort.keys() != fields
                    or set_doc.keys() != _SET_FIELDS[set_doc["kind"]]):
                return None
            ids.append(doc["id"])
            features.append(doc["feature"])
            sharing.append(doc["sharing"])
            codes.append(code)
            sigma0.append(effort["sigma0"])
            rate.append(effort[rate_field])
            e_max.append(set_doc.get("e_max", math.inf))  # inf: unbounded
            numbers += doc["feature"]
            if "e_max" in set_doc:
                numbers.append(set_doc["e_max"])
        numbers += sigma0 + rate
        if not (set(map(type, ids)) <= {str} and set(map(type, features)) <= {list}
                and set(map(type, sharing)) <= {list} and all(features) and all(sharing)
                and set(map(type, itertools.chain.from_iterable(sharing))) <= {str}
                and set(map(type, numbers)) <= {float} and np.isfinite(numbers).all()):
            return None
        return ids, features, sharing, EffortMap(codes, sigma0, rate, e_max)
    except (KeyError, TypeError, AttributeError, DomainError):
        return None


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
    columns = _read_columns(sources_doc)
    if columns is None:  # the per-field reader raises the first row's ParseError
        columns = _source_columns(_parse_source(s, k) for k, s in enumerate(sources_doc))
    agg_doc = _expect(doc, "aggregators", list, "document")
    aggregators = tuple(_parse_aggregator(a, k) for k, a in enumerate(agg_doc))
    direct_beta = direct_xi = None
    if "direct_parameters" in doc:
        direct_beta, direct_xi = _parse_direct_tables(doc["direct_parameters"])
    try:
        return MarketScenario._from_columns(*columns, aggregators, ground_truth, mode=mode,
                                            direct_beta=direct_beta, direct_xi=direct_xi)
    except DomainError as exc:
        raise ParseError(str(exc), location="document") from exc


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _object(fields, depth: int, brackets: str = "{}") -> str:
    """The indent=2 text of an object nested `depth` deep, from its
    '"key": value' field texts; with brackets "[]", of an array from its
    item texts."""
    if not fields:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(fields)}\n{'  ' * depth}{brackets[1]}"


def _float(value) -> str:
    """A number as json.dumps writes it: NaN and the infinities, which a
    library-built ground truth or query may hold, as JSON's extensions
    (the parser refuses them)."""
    value = float(value)
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _floats(values, depth: int) -> str:
    return _object(list(map(_float, values)), depth, "[]")


def _keys(ids) -> list[str]:
    """The '"id": ' prefix of each id's field, each distinct id quoted once."""
    ids = list(ids)
    quoted = {key: _quoted(key) + ": " for key in dict.fromkeys(ids)}
    return list(map(quoted.__getitem__, ids))


def _values(table: IdTable, name: str) -> list:
    """The table's values, a row's as a list.  A value that is not finite,
    which no reader accepts, raises DomainError naming the table and the id."""
    finite = np.isfinite(table.array)
    if not finite.all():
        k = int(np.argmin(finite.reshape(len(table.ids), -1).all(axis=1)))
        raise DomainError(f"table {name} has a non-finite value at {table.ids[k]}: "
                          f"{table.array[k].tolist()}")
    return table.array.tolist()


def _fields(keys: list[str], table: IdTable, name: str) -> list[str]:
    """Each value's field, after its key's prefix."""
    return [f"{key}{value!r}" for key, value in zip(keys, _values(table, name))]


def _id_keys(table: IdTable, name: str, pairs: bool = False) -> IdTable:
    """The table, when every key is an id (a pair of ids where `pairs`); any
    other key, which no reader accepts, raises DomainError naming the table."""
    for key in table.ids:
        if not (isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], str)
                and isinstance(key[1], str) if pairs else isinstance(key, str)):
            raise DomainError(f"table {name} has a key that is not "
                              f"{'a pair of ids' if pairs else 'an id'}: {key!r}")
    return table


def _pair_objects(table: IdTable, name: str, depth: int) -> dict:
    """Source id -> the object, nested `depth` deep, of its pairs' fields
    keyed by aggregator: the run of its pairs in the table's id order."""
    table = _id_keys(table, name, pairs=True)
    fields = _fields(_keys(map(operator.itemgetter(1), table.ids)), table, name)
    return {sid: _object(fields[lo:hi], depth) for sid, (lo, hi) in _runs(table.ids).items()}


def _table(table: IdTable, name: str, depth: int, pairs: bool = False) -> str:
    """An IdTable, in id order, as an object nested `depth` deep: its
    fields, or with `pairs` one object per source of its pairs' fields."""
    if not pairs:
        return _object(_fields(_keys(_id_keys(table, name).ids), table, name), depth)
    objects = _pair_objects(table, name, depth + 1)
    return _object(list(map(str.__add__, _keys(objects), objects.values())), depth)


#: One source's entry in "sources", nested two deep, from its id, feature,
#: family, sigma0, rate field, rate, set and sharing texts.
_SOURCE_ENTRY = ('{{\n      "id": {},\n      "feature": {},\n      "effort": {{\n'
                 '        "family": {},\n        "sigma0": {!r},\n        {}: {!r},\n'
                 '        "set": {}\n      }},\n      "sharing": {}\n    }}').format
_UNBOUNDED_SET = '{\n          "kind": "unbounded"\n        }'
_BOUNDED_SET = '{{\n          "kind": "bounded",\n          "e_max": {!r}\n        }}'.format


def _sources_text(scenario: MarketScenario) -> list[str]:
    """Each source's entry, from the columns, whose numbers are finite
    (checked at construction), so each is its float repr.  A custom effort
    family, which has no document form, raises DomainError."""
    effort = scenario.effort_map
    if (effort.family == _CUSTOM).any():
        raise DomainError("custom effort families are not serializable")
    forms = [(_quoted(form.name), _quoted(form.rate)) for form in _FORMS]
    bids = [_quoted(bid) for bid in scenario.aggregator_ids]
    entries = []
    for sid, feature, code, sigma0, rate, e_max, row in zip(
            scenario.source_ids, scenario.features.tolist(), effort.family.tolist(),
            effort.sigma0.tolist(), effort.rate.tolist(), effort.e_max.tolist(),
            scenario.membership.tolist()):
        name, rate_field = forms[code]
        entries.append(_SOURCE_ENTRY(
            _quoted(sid), _object(list(map(float.__repr__, feature)), 3, "[]"), name, sigma0,
            rate_field, rate,
            _UNBOUNDED_SET if e_max == math.inf else _BOUNDED_SET(e_max),
            _object([bid for bid, sold in zip(bids, row) if sold], 3, "[]")))
    return entries


def _aggregator_text(agg: AggregatorSpec, zeta: str) -> str:
    """One aggregator's entry, nested two deep, with its zeta object's text."""
    return _object([
        f'"id": {_quoted(agg.id)}',
        f'"estimator": {_quoted(agg.estimator.kind)}',
        '"query_distribution": ' + _object([
            _object([f'"point": {_floats(point, 5)}', f'"probability": {_float(w)}'], 4)
            for point, w in agg.query_dist.atoms], 3, "[]"),
        '"zeta": ' + zeta,
        f'"eta": {_float(agg.payment_scale)}'], 2)


def serialize_scenario(scenario: MarketScenario) -> str:
    """Canonical document text, as json.dumps(doc, indent=2) + "\n" writes
    it (fixed key order, id-sorted sections, float repr), written straight
    from the scenario's columns."""
    truth = scenario.ground_truth
    # every aggregator's zeta as one table keyed by (aggregator, rival): one pass of
    # the writer, whose fixed cost per table exceeds a small zeta's own
    zeta = _pair_objects(IdTable.of({(agg.id, j): z for agg in scenario.aggregators
                                     for j, z in agg.zeta.items()}), "zeta", 3)
    fields = [f'"schema_version": {SCHEMA_VERSION}',
              f'"mode": {_quoted(scenario.mode)}',
              '"ground_truth": ' + _object([f'"coefficients": {_floats(truth.coefficients, 2)}',
                                            f'"intercept": {_float(truth.intercept)}'], 1),
              '"sources": ' + _object(_sources_text(scenario), 1, "[]"),
              '"aggregators": ' + _object([_aggregator_text(agg, zeta.get(agg.id, "{}"))
                                           for agg in scenario.aggregators], 1, "[]")]
    if scenario.mode == MODE_DIRECT:
        fields.append('"direct_parameters": ' + _object([
            '"beta": ' + _table(scenario.direct_beta, "beta", 2, pairs=True),
            '"xi": ' + _object([f"{_quoted(bid)}: {_table(table, 'xi', 3, pairs=True)}"
                                for bid, table in scenario.direct_xi.items()], 2)], 1))
    return _object(fields, 0) + "\n"


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


def _draw_efforts(spec: GenerationSpec, rng, gamma_total: np.ndarray) -> EffortMap:
    """Each source's family, with its minimum incentive placed a random
    fraction below its total demand, so demand clears the participation
    region whatever the market size; in both families
    a_lower = 1/(2*rate*sigma0^2).  Each source draws, in id order, the
    fraction, its family (when mixed) and its rate."""
    draws = rng.random((len(gamma_total), 3 if spec.family == "mixed" else 2))
    exponential, inverse_power = (_FAMILY_FIELDS[name][0]
                                  for name in ("exponential", "inverse_power"))
    if spec.family == "mixed":
        codes = np.where(draws[:, 1] < 0.5, exponential, inverse_power)
    else:
        codes = np.full(len(gamma_total), _FAMILY_FIELDS[spec.family][0])
    low = np.where(codes == exponential, 0.3, 0.5)
    # uniform(low, high) is low + (high - low) * u, in these operations
    rate = low + (3.0 - low) * draws[:, -1]
    a_lower_target = gamma_total * (0.05 + (0.6 - 0.05) * draws[:, 0])
    with np.errstate(divide="ignore", over="ignore"):  # EffortMap refuses an infinite sigma0
        sigma0 = np.sqrt(1.0 / (2.0 * rate * a_lower_target))
    return EffortMap(codes, sigma0, rate, np.full(len(codes), math.inf))


def _draw_membership(spec: GenerationSpec, rng) -> np.ndarray:
    """n x m: whether source s sells to aggregator b.  Each entry is drawn
    in row order; a source left with none sells to one aggregator drawn at
    random, and in estimator mode each aggregator short of dimension + 2
    sellers gains sellers drawn from its outsiders."""
    n, m = spec.n_sources, spec.n_aggregators
    membership = rng.random((n, m)) < spec.sharing_density
    for s in np.flatnonzero(~membership.any(axis=1)).tolist():
        membership[s, int(rng.integers(0, m))] = True
    if spec.mode == MODE_ESTIMATOR:
        for b in range(m):
            outsiders = np.flatnonzero(~membership[:, b])
            missing = spec.dimension + 2 - (n - len(outsiders))
            if missing > 0:
                membership[outsiders[rng.permutation(len(outsiders))[:missing]], b] = True
    return membership


def _latin_features(rng, n: int, d: int) -> np.ndarray:
    """Jittered per-axis grids: spread points keep design and leave-one-out
    Gram matrices well conditioned far more often than i.i.d. uniforms."""
    coords = np.empty((n, d))
    for axis in range(d):
        order = rng.permutation(n)
        offsets = rng.uniform(0.1, 0.9, size=n)
        coords[:, axis] = -2.0 + 4.0 * (order + offsets) / n
    return coords


def _reject(violations) -> None:
    """Refuse a draw with violations, by the first three of their messages."""
    if violations:
        raise DomainError("; ".join(v.message for v in violations[:3]))  # retried


def _attempt(spec: GenerationSpec, rng) -> MarketScenario:
    """One draw; DomainError when validation refuses it (see _reject)."""
    sids = [f"s{k + 1:03d}" for k in range(spec.n_sources)]
    bids = [f"b{k + 1:03d}" for k in range(spec.n_aggregators)]
    features = _latin_features(rng, spec.n_sources, spec.dimension)
    membership = _draw_membership(spec, rng)
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

    pairs = [(sids[s], bids[b]) for s, b in zip(pair_source.tolist(), pair_aggregator.tolist())]
    # direct mode draws beta; relevance is pure geometry, known before any effort family
    beta = (rng.uniform(0.5, 2.0, size=len(pairs)) if spec.mode == MODE_DIRECT
            else _relevance(features, aggregator_pairs, members, aggregators))
    gamma, gamma_total = _net_demand(beta, membership, pair_source, pair_aggregator, aggregators)
    _reject(list(_demand_violations(gamma, pairs)))  # before any xi or effort is drawn
    direct_beta = direct_xi = None
    if spec.mode == MODE_DIRECT:
        direct_beta, direct_xi = IdTable(pairs, beta), {}
        for bid, rows in zip(bids, members):
            # the off-diagonal entries in row order, as one draw each in that order
            xi = np.ones((len(rows), len(rows)))
            xi[~np.eye(len(rows), dtype=bool)] = rng.uniform(
                0.0, spec.coupling_scale, size=len(rows) * (len(rows) - 1))
            ds = [sids[i] for i in rows.tolist()]
            direct_xi[bid] = IdTable(itertools.product(ds, repeat=2), xi.ravel())

    effort = _draw_efforts(spec, rng, gamma_total)
    if spec.bounded:
        # caps a random factor above total demand satisfy the saturation
        # hypothesis by construction
        a_upper = gamma_total * rng.uniform(1.1, 2.5, size=len(sids))
        effort = EffortMap(effort.family, effort.sigma0, effort.rate, effort.efforts(a_upper))
    bounds = np.cumsum(membership.sum(axis=1)).tolist()
    sharing = [[bid for _, bid in pairs[lo:hi]] for lo, hi in zip([0, *bounds], bounds)]
    scenario = MarketScenario._from_columns(sids, features, sharing, effort, aggregators,
                                            ground_truth, mode=spec.mode,
                                            direct_beta=direct_beta, direct_xi=direct_xi)
    _reject(_derivation(scenario, beta=beta)[1].violations)  # validate_scenario(scenario)
    return scenario


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
            return _attempt(spec, trial_stream(seed, attempt)), attempt + 1
        except DomainError as exc:
            last_failure = str(exc)
    raise GenerationError(
        f"no valid scenario in {MAX_GENERATION_ATTEMPTS} attempts for "
        f"spec {spec} seed {seed} (last failure: {last_failure})",
        attempts=MAX_GENERATION_ATTEMPTS)
