"""Parameterized query templates mimicking the SDSS trace query classes.

The paper characterizes the trace as "range queries, spatial searches,
identity queries, and aggregate queries" exhibiting *schema* locality
(recurring tables/columns) but almost no *query* locality (recurring
results).  Each template here fixes a schema shape and draws fresh
parameters on every instantiation, which reproduces exactly that
combination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.workload.sdss_schema import (
    NUM_CAMCOLS,
    NUM_RUNS,
    OBJECT_TYPES,
    SPEC_CLASSES,
    ScaleProfile,
)


@dataclass(frozen=True)
class QueryTemplate:
    """One schema-shaped query family.

    Attributes:
        name: Stable template identifier (recorded in traces).
        tables: Tables the template touches (for documentation/tests; the
            authoritative reference set comes from parsing the SQL).
        build: Draws parameters from ``rng`` and returns SQL text.
    """

    name: str
    tables: Tuple[str, ...]
    build: Callable[[random.Random, "RegionCursor", ScaleProfile], str]


class RegionCursor:
    """A drifting region of interest on the sky.

    Consecutive region queries in a theme look at nearby, slowly-moving
    sky windows — the "common query iterates over regions of the sky"
    pattern from the paper's introduction — without ever producing
    identical predicates (so query containment stays near zero).
    """

    def __init__(self, rng: random.Random) -> None:
        self.ra = rng.uniform(0.0, 360.0)
        self.dec = rng.uniform(-50.0, 50.0)
        self._rng = rng

    def advance(self) -> None:
        """Drift the window; occasionally jump to a fresh area."""
        if self._rng.random() < 0.05:
            self.ra = self._rng.uniform(0.0, 360.0)
            self.dec = self._rng.uniform(-50.0, 50.0)
        else:
            self.ra = (self.ra + self._rng.uniform(0.5, 4.0)) % 360.0
            self.dec = min(
                55.0, max(-55.0, self.dec + self._rng.uniform(-2.0, 2.0))
            )

    def window(
        self, rng: random.Random, ra_span: float, dec_span: float
    ) -> Tuple[float, float, float, float]:
        self.advance()
        ra_lo = self.ra
        ra_hi = min(360.0, ra_lo + ra_span * (0.5 + rng.random()))
        dec_lo = self.dec
        dec_hi = min(60.0, dec_lo + dec_span * (0.5 + rng.random()))
        return ra_lo, ra_hi, dec_lo, dec_hi


def _region_photo(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    ra_lo, ra_hi, dec_lo, dec_hi = cursor.window(rng, 90.0, 70.0)
    return (
        "SELECT objID, ra, dec, type, modelMag_g, modelMag_r, "
        "modelMag_i, petroRad_r FROM PhotoObj "
        f"WHERE ra BETWEEN {ra_lo:.4f} AND {ra_hi:.4f} "
        f"AND dec BETWEEN {dec_lo:.4f} AND {dec_hi:.4f}"
    )


def _region_tag(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    ra_lo, ra_hi, dec_lo, dec_hi = cursor.window(rng, 140.0, 80.0)
    return (
        "SELECT objID, ra, dec, type, modelMag_g, modelMag_r FROM PhotoTag "
        f"WHERE ra BETWEEN {ra_lo:.4f} AND {ra_hi:.4f} "
        f"AND dec BETWEEN {dec_lo:.4f} AND {dec_hi:.4f}"
    )


def _identity(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    obj_id = rng.randrange(1, profile.photoobj_rows + 1)
    return f"SELECT * FROM PhotoObj WHERE objID = {obj_id}"


def _magcut(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    mag = rng.uniform(18.5, 22.0)
    obj_type = rng.choice(OBJECT_TYPES)
    return (
        "SELECT objID, ra, dec, modelMag_r, modelMag_g, type FROM PhotoObj "
        f"WHERE modelMag_r < {mag:.3f} AND type = {obj_type}"
    )


def _psf_colors(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    ra_lo, ra_hi, _, _ = cursor.window(rng, 120.0, 0.0)
    mag = rng.uniform(18.5, 21.5)
    return (
        "SELECT objID, psfMag_g - psfMag_r AS gr, "
        "psfMag_r - psfMag_i AS ri FROM PhotoObj "
        f"WHERE psfMag_r < {mag:.3f} "
        f"AND ra BETWEEN {ra_lo:.4f} AND {ra_hi:.4f}"
    )


def _spec_join(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    # The paper's running example (Section 6).
    spec_class = rng.choice(SPEC_CLASSES)
    z_conf = rng.uniform(0.5, 0.9)
    mag = rng.uniform(15.0, 18.0)
    z_max = rng.uniform(0.05, 0.3)
    return (
        "SELECT p.objID, p.ra, p.dec, p.modelMag_g, s.z AS redshift "
        "FROM SpecObj s, PhotoObj p "
        "WHERE p.objID = s.objID "
        f"AND s.specClass = {spec_class} AND s.zConf > {z_conf:.3f} "
        f"AND p.modelMag_g > {mag:.3f} AND s.z < {z_max:.4f}"
    )


def _spec_range(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    z_lo = rng.uniform(0.0, 0.08)
    z_hi = z_lo + rng.uniform(0.05, 0.25)
    conf = rng.uniform(0.5, 0.9)
    return (
        "SELECT specObjID, objID, z, zConf, specClass FROM SpecObj "
        f"WHERE z BETWEEN {z_lo:.4f} AND {z_hi:.4f} AND zConf > {conf:.3f}"
    )


def _spec_agg(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    z_max = rng.uniform(0.02, 0.3)
    return (
        "SELECT specClass, COUNT(*) AS n, AVG(z) AS meanz FROM SpecObj "
        f"WHERE z < {z_max:.4f} GROUP BY specClass ORDER BY specClass"
    )


def _tag_join_spec(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    z_min = rng.uniform(0.0, 0.1)
    return (
        "SELECT t.objID, t.ra, t.dec, t.modelMag_g, s.z, s.specClass "
        "FROM PhotoTag t, SpecObj s "
        f"WHERE t.objID = s.objID AND s.z > {z_min:.4f}"
    )


def _neighbors(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    obj_id = rng.randrange(1, profile.photoobj_rows + 1)
    dist = rng.uniform(0.005, 0.06)
    return (
        "SELECT neighborObjID, distance FROM Neighbors "
        f"WHERE objID = {obj_id} AND distance < {dist:.5f}"
    )


def _neighbors_scan(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    dist = rng.uniform(0.02, 0.08)
    kind = rng.choice(OBJECT_TYPES)
    return (
        "SELECT objID, neighborObjID, distance, mode FROM Neighbors "
        f"WHERE distance < {dist:.5f} AND neighborType = {kind}"
    )


def _frame_sky(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    run = rng.randrange(1, NUM_RUNS + 1)
    camcol = rng.randrange(1, NUM_CAMCOLS + 1)
    return (
        "SELECT frameID, sky, skyErr, airmass FROM Frame "
        f"WHERE run = {run} AND camcol = {camcol} AND quality >= 2"
    )


def _mask_lookup(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    ra_lo, ra_hi, dec_lo, dec_hi = cursor.window(rng, 12.0, 10.0)
    return (
        "SELECT maskID, ra, dec, radius FROM Mask "
        f"WHERE ra BETWEEN {ra_lo:.4f} AND {ra_hi:.4f} "
        f"AND dec BETWEEN {dec_lo:.4f} AND {dec_hi:.4f} AND type = "
        f"{rng.randrange(5)}"
    )


def _objprofile_fetch(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    obj_id = rng.randrange(1, profile.photoobj_rows + 1)
    band = rng.randrange(5)
    return (
        "SELECT bin, profMean, profErr FROM ObjProfile "
        f"WHERE objID = {obj_id} AND band = {band} ORDER BY bin"
    )


def _field_stats(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    quality = rng.randrange(3)
    return (
        "SELECT run, camcol, COUNT(*) AS n FROM Field "
        f"WHERE quality >= {quality} GROUP BY run, camcol "
        "ORDER BY run, camcol"
    )


def _field_region(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    run = rng.randrange(1, NUM_RUNS + 1)
    camcol = rng.randrange(1, NUM_CAMCOLS + 1)
    return (
        "SELECT fieldID, ra, dec, nObjects FROM Field "
        f"WHERE run = {run} AND camcol = {camcol}"
    )


def _first_match(
    rng: random.Random, cursor: RegionCursor, profile: ScaleProfile
) -> str:
    peak = rng.uniform(0.5, 2.5)
    return (
        "SELECT p.objID, p.ra, p.dec, f.peak FROM PhotoObj p, First f "
        f"WHERE p.objID = f.objID AND f.peak > {peak:.3f}"
    )


TEMPLATES: Dict[str, QueryTemplate] = {
    t.name: t
    for t in [
        QueryTemplate("region_photo", ("PhotoObj",), _region_photo),
        QueryTemplate("region_tag", ("PhotoTag",), _region_tag),
        QueryTemplate("identity", ("PhotoObj",), _identity),
        QueryTemplate("magcut", ("PhotoObj",), _magcut),
        QueryTemplate("psf_colors", ("PhotoObj",), _psf_colors),
        QueryTemplate("spec_join", ("SpecObj", "PhotoObj"), _spec_join),
        QueryTemplate("spec_range", ("SpecObj",), _spec_range),
        QueryTemplate("spec_agg", ("SpecObj",), _spec_agg),
        QueryTemplate("tag_join_spec", ("PhotoTag", "SpecObj"), _tag_join_spec),
        QueryTemplate("neighbors", ("Neighbors",), _neighbors),
        QueryTemplate("neighbors_scan", ("Neighbors",), _neighbors_scan),
        QueryTemplate("frame_sky", ("Frame",), _frame_sky),
        QueryTemplate("mask_lookup", ("Mask",), _mask_lookup),
        QueryTemplate("objprofile_fetch", ("ObjProfile",), _objprofile_fetch),
        QueryTemplate("field_stats", ("Field",), _field_stats),
        QueryTemplate("field_region", ("Field",), _field_region),
        QueryTemplate("first_match", ("PhotoObj", "First"), _first_match),
    ]
}

#: Cold templates: one-off references to bulk archive tables.  They are
#: sprinkled across every theme by the generator (``cold_prob``); their
#: yields are tiny but the tables behind them are huge, which is what
#: makes load-everything in-line caching (GDS) thrash.
COLD_TEMPLATES: Tuple[str, ...] = (
    "frame_sky",
    "mask_lookup",
    "objprofile_fetch",
)

# Themes: template working-sets users dwell on for long stretches.  The
# dwell behaviour produces the heavy, long-lasting schema locality of
# Figures 5 and 6.
THEMES: Dict[str, List[Tuple[str, float]]] = {
    "imaging": [
        ("region_photo", 0.40),
        ("region_tag", 0.20),
        ("identity", 0.15),
        ("magcut", 0.15),
        ("psf_colors", 0.10),
    ],
    "spectro": [
        ("spec_join", 0.35),
        ("spec_range", 0.30),
        ("spec_agg", 0.20),
        ("tag_join_spec", 0.15),
    ],
    "spatial": [
        ("neighbors", 0.45),
        ("neighbors_scan", 0.25),
        ("region_tag", 0.20),
        ("identity", 0.10),
    ],
    "survey_qa": [
        ("field_stats", 0.40),
        ("field_region", 0.35),
        ("region_photo", 0.25),
    ],
    "crossmatch": [
        ("first_match", 0.55),
        ("region_photo", 0.25),
        ("identity", 0.20),
    ],
}


def pick_template(
    theme: str, rng: random.Random
) -> QueryTemplate:
    """Draw a template from a theme's weighted mixture."""
    entries = THEMES[theme]
    total = sum(weight for _, weight in entries)
    point = rng.random() * total
    acc = 0.0
    for name, weight in entries:
        acc += weight
        if point <= acc:
            return TEMPLATES[name]
    return TEMPLATES[entries[-1][0]]
