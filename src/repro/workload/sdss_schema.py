"""SDSS-like astronomy schema and synthetic sky data.

The Sloan Digital Sky Survey traces the paper uses are not distributable,
so we synthesize a database with the same *structure*: a wide imaging
table (PhotoObj), a thin tag table (PhotoTag), a spectroscopic table
(SpecObj) whose objects are a subset of PhotoObj, a pairwise Neighbors
table, an imaging-run Field table, and a FIRST radio-survey table (the
classic SkyQuery cross-match partner, useful for multi-server
federations).

Row counts come from a :class:`ScaleProfile`; all generation is
deterministic given a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.federation.federation import Federation
from repro.federation.server import DatabaseServer
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.schema import Column, TableSchema
from repro.sqlengine.types import ColumnType

BIGINT = ColumnType.BIGINT
INT = ColumnType.INT
FLOAT = ColumnType.FLOAT


def photoobj_schema() -> TableSchema:
    """The wide imaging table: one row per detected celestial object."""
    bands = ["u", "g", "r", "i", "z"]
    columns = [
        Column("objID", BIGINT),
        Column("run", INT),
        Column("rerun", INT),
        Column("camcol", INT),
        Column("field", INT),
        Column("type", INT),
        Column("flags", BIGINT),
        Column("ra", FLOAT),
        Column("dec", FLOAT),
    ]
    columns.extend(Column(f"psfMag_{b}", FLOAT) for b in bands)
    columns.extend(Column(f"modelMag_{b}", FLOAT) for b in bands)
    columns.extend(
        [
            Column("petroRad_r", FLOAT),
            Column("extinction_r", FLOAT),
            Column("status", INT),
            Column("htmID", BIGINT),
        ]
    )
    return TableSchema("PhotoObj", columns)


def phototag_schema() -> TableSchema:
    """Thin 'tag' projection of PhotoObj kept for fast scans."""
    return TableSchema(
        "PhotoTag",
        [
            Column("objID", BIGINT),
            Column("ra", FLOAT),
            Column("dec", FLOAT),
            Column("type", INT),
            Column("modelMag_g", FLOAT),
            Column("modelMag_r", FLOAT),
            Column("modelMag_i", FLOAT),
        ],
    )


def specobj_schema() -> TableSchema:
    """Spectroscopic objects: a subset of PhotoObj with redshifts."""
    return TableSchema(
        "SpecObj",
        [
            Column("specObjID", BIGINT),
            Column("objID", BIGINT),
            Column("z", FLOAT),
            Column("zErr", FLOAT),
            Column("zConf", FLOAT),
            Column("specClass", INT),
            Column("plate", INT),
            Column("mjd", INT),
            Column("fiberID", INT),
            Column("ra", FLOAT),
            Column("dec", FLOAT),
            Column("velDisp", FLOAT),
        ],
    )


def neighbors_schema() -> TableSchema:
    """Pairwise proximity table used by spatial-neighborhood queries."""
    return TableSchema(
        "Neighbors",
        [
            Column("objID", BIGINT),
            Column("neighborObjID", BIGINT),
            Column("distance", FLOAT),
            Column("neighborType", INT),
            Column("mode", INT),
        ],
    )


def field_schema() -> TableSchema:
    """Imaging-run field metadata."""
    return TableSchema(
        "Field",
        [
            Column("fieldID", BIGINT),
            Column("run", INT),
            Column("camcol", INT),
            Column("field", INT),
            Column("ra", FLOAT),
            Column("dec", FLOAT),
            Column("nObjects", INT),
            Column("quality", INT),
        ],
    )


def frame_schema() -> TableSchema:
    """Imaging frame metadata: bulk archive data, rarely queried."""
    return TableSchema(
        "Frame",
        [
            Column("frameID", BIGINT),
            Column("run", INT),
            Column("camcol", INT),
            Column("field", INT),
            Column("stripe", INT),
            Column("mu", FLOAT),
            Column("nu", FLOAT),
            Column("raMin", FLOAT),
            Column("raMax", FLOAT),
            Column("decMin", FLOAT),
            Column("decMax", FLOAT),
            Column("sky", FLOAT),
            Column("skyErr", FLOAT),
            Column("airmass", FLOAT),
            Column("quality", INT),
        ],
    )


def mask_schema() -> TableSchema:
    """Image defect masks: bulk archive data, rarely queried."""
    return TableSchema(
        "Mask",
        [
            Column("maskID", BIGINT),
            Column("frameID", BIGINT),
            Column("ra", FLOAT),
            Column("dec", FLOAT),
            Column("radius", FLOAT),
            Column("type", INT),
            Column("area", FLOAT),
        ],
    )


def objprofile_schema() -> TableSchema:
    """Radial light profiles: bulk per-object science data, rarely
    queried."""
    return TableSchema(
        "ObjProfile",
        [
            Column("objID", BIGINT),
            Column("bin", INT),
            Column("band", INT),
            Column("profMean", FLOAT),
            Column("profErr", FLOAT),
        ],
    )


def first_schema() -> TableSchema:
    """FIRST radio-survey sources (the SkyQuery cross-match partner)."""
    return TableSchema(
        "First",
        [
            Column("firstID", BIGINT),
            Column("objID", BIGINT),
            Column("ra", FLOAT),
            Column("dec", FLOAT),
            Column("peak", FLOAT),
            Column("integr", FLOAT),
        ],
    )


@dataclass(frozen=True)
class ScaleProfile:
    """Row counts for synthetic database generation.

    The paper's SDSS snapshot was ~700 MB; these profiles are scaled-down
    versions that preserve the *relative* table sizes (PhotoObj dominates;
    SpecObj is roughly a tenth of it; PhotoTag is a thin copy).
    """

    name: str
    photoobj_rows: int
    specobj_rows: int
    phototag_rows: int
    neighbors_rows: int
    field_rows: int
    first_rows: int
    frame_rows: int = 0
    mask_rows: int = 0
    objprofile_rows: int = 0

    def __post_init__(self) -> None:
        counts = [
            self.photoobj_rows,
            self.specobj_rows,
            self.phototag_rows,
            self.neighbors_rows,
            self.field_rows,
            self.first_rows,
        ]
        if any(count <= 0 for count in counts):
            raise ValueError("all row counts must be positive")
        if self.specobj_rows > self.photoobj_rows:
            raise ValueError("SpecObj must be a subset of PhotoObj")
        if self.phototag_rows > self.photoobj_rows:
            raise ValueError("PhotoTag must be a subset of PhotoObj")


TINY = ScaleProfile(
    name="tiny",
    photoobj_rows=400,
    specobj_rows=80,
    phototag_rows=400,
    neighbors_rows=300,
    field_rows=40,
    first_rows=60,
    frame_rows=1000,
    mask_rows=1600,
    objprofile_rows=2400,
)

SMALL = ScaleProfile(
    name="small",
    photoobj_rows=2000,
    specobj_rows=400,
    phototag_rows=2000,
    neighbors_rows=1500,
    field_rows=120,
    first_rows=300,
    frame_rows=5000,
    mask_rows=8000,
    objprofile_rows=12000,
)

MEDIUM = ScaleProfile(
    name="medium",
    photoobj_rows=6000,
    specobj_rows=1200,
    phototag_rows=6000,
    neighbors_rows=4000,
    field_rows=300,
    first_rows=900,
    frame_rows=15000,
    mask_rows=24000,
    objprofile_rows=36000,
)

PROFILES: Dict[str, ScaleProfile] = {
    p.name: p for p in (TINY, SMALL, MEDIUM)
}

# Galaxy / star / quasar style type codes used by templates.
OBJECT_TYPES = (0, 3, 6)
SPEC_CLASSES = (0, 1, 2, 3, 4)
NUM_RUNS = 8
NUM_CAMCOLS = 6


def build_sdss_catalog(
    profile: ScaleProfile = SMALL,
    seed: int = 42,
    name: str = "sdss",
    include_first: bool = False,
) -> Catalog:
    """Generate a fully-populated SDSS-like catalog.

    Args:
        profile: Row counts.
        seed: RNG seed; generation is fully deterministic.
        name: Catalog name.
        include_first: Also populate the FIRST radio table (normally
            hosted on a *separate* server; see :func:`build_first_catalog`).
    """
    rng = random.Random(seed)
    catalog = Catalog(name)

    photo = catalog.create_table(photoobj_schema())
    positions: List[tuple] = []
    for obj_id in range(1, profile.photoobj_rows + 1):
        # Cluster objects into sky stripes so range predicates have
        # non-trivial, controllable selectivity.
        stripe = rng.randrange(NUM_RUNS)
        ra = stripe * (360.0 / NUM_RUNS) + rng.random() * (360.0 / NUM_RUNS)
        dec = rng.uniform(-60.0, 60.0)
        positions.append((obj_id, ra, dec))
        mags = [rng.gauss(19.0, 1.8) for _ in range(5)]
        row = [
            obj_id,
            stripe + 1,
            rng.randrange(1, 4),
            rng.randrange(1, NUM_CAMCOLS + 1),
            rng.randrange(1, 1 + max(1, profile.field_rows)),
            rng.choice(OBJECT_TYPES),
            rng.getrandbits(30),
            ra,
            dec,
        ]
        row.extend(m + rng.gauss(0.0, 0.2) for m in mags)  # psfMag_*
        row.extend(mags)  # modelMag_*
        row.extend(
            [
                abs(rng.gauss(3.0, 1.5)),
                abs(rng.gauss(0.1, 0.05)),
                rng.randrange(4),
                rng.getrandbits(40),
            ]
        )
        photo.insert(row)

    tag = catalog.create_table(phototag_schema())
    model_g = photo.column_values("modelMag_g")
    model_r = photo.column_values("modelMag_r")
    model_i = photo.column_values("modelMag_i")
    types = photo.column_values("type")
    for i in range(profile.phototag_rows):
        obj_id, ra, dec = positions[i]
        tag.insert(
            [obj_id, ra, dec, types[i], model_g[i], model_r[i], model_i[i]]
        )

    spec = catalog.create_table(specobj_schema())
    spec_ids = rng.sample(
        range(1, profile.photoobj_rows + 1), profile.specobj_rows
    )
    for n, obj_id in enumerate(sorted(spec_ids), start=1):
        _, ra, dec = positions[obj_id - 1]
        spec.insert(
            [
                10_000_000 + n,
                obj_id,
                abs(rng.gauss(0.08, 0.07)),
                abs(rng.gauss(0.0005, 0.0003)),
                min(1.0, max(0.0, rng.gauss(0.93, 0.08))),
                rng.choice(SPEC_CLASSES),
                rng.randrange(266, 900),
                rng.randrange(51600, 54000),
                rng.randrange(1, 641),
                ra,
                dec,
                abs(rng.gauss(150.0, 60.0)),
            ]
        )

    neighbors = catalog.create_table(neighbors_schema())
    for _ in range(profile.neighbors_rows):
        a = rng.randrange(1, profile.photoobj_rows + 1)
        b = rng.randrange(1, profile.photoobj_rows + 1)
        neighbors.insert(
            [
                a,
                b,
                abs(rng.gauss(0.02, 0.015)),
                rng.choice(OBJECT_TYPES),
                rng.randrange(2),
            ]
        )

    field = catalog.create_table(field_schema())
    for field_id in range(1, profile.field_rows + 1):
        field.insert(
            [
                field_id,
                rng.randrange(1, NUM_RUNS + 1),
                rng.randrange(1, NUM_CAMCOLS + 1),
                field_id,
                rng.uniform(0.0, 360.0),
                rng.uniform(-60.0, 60.0),
                rng.randrange(50, 900),
                rng.randrange(3),
            ]
        )

    if profile.frame_rows:
        frame = catalog.create_table(frame_schema())
        for frame_id in range(1, profile.frame_rows + 1):
            ra_min = rng.uniform(0.0, 355.0)
            dec_min = rng.uniform(-60.0, 55.0)
            frame.insert(
                [
                    frame_id,
                    rng.randrange(1, NUM_RUNS + 1),
                    rng.randrange(1, NUM_CAMCOLS + 1),
                    frame_id % max(1, profile.field_rows) + 1,
                    rng.randrange(1, 90),
                    rng.uniform(0.0, 360.0),
                    rng.uniform(-60.0, 60.0),
                    ra_min,
                    ra_min + rng.uniform(0.05, 0.3),
                    dec_min,
                    dec_min + rng.uniform(0.05, 0.3),
                    abs(rng.gauss(21.0, 0.6)),
                    abs(rng.gauss(0.02, 0.01)),
                    abs(rng.gauss(1.2, 0.15)),
                    rng.randrange(4),
                ]
            )

    if profile.mask_rows:
        mask = catalog.create_table(mask_schema())
        for mask_id in range(1, profile.mask_rows + 1):
            mask.insert(
                [
                    mask_id,
                    rng.randrange(1, max(2, profile.frame_rows + 1)),
                    rng.uniform(0.0, 360.0),
                    rng.uniform(-60.0, 60.0),
                    abs(rng.gauss(0.01, 0.005)),
                    rng.randrange(5),
                    abs(rng.gauss(0.0003, 0.0002)),
                ]
            )

    if profile.objprofile_rows:
        prof_table = catalog.create_table(objprofile_schema())
        for _ in range(profile.objprofile_rows):
            prof_table.insert(
                [
                    rng.randrange(1, profile.photoobj_rows + 1),
                    rng.randrange(15),
                    rng.randrange(5),
                    abs(rng.gauss(24.0, 2.0)),
                    abs(rng.gauss(0.3, 0.1)),
                ]
            )

    if include_first:
        _populate_first(catalog, profile, rng, positions)

    # Identity and neighborhood lookups dominate point queries; hash
    # indexes on the identifier columns mirror SDSS's primary keys.
    photo.create_index("objID")
    tag.create_index("objID")
    spec.create_index("objID")
    neighbors.create_index("objID")
    if profile.objprofile_rows:
        prof_table.create_index("objID")
    return catalog


def build_first_catalog(
    profile: ScaleProfile = SMALL, seed: int = 43, name: str = "first"
) -> Catalog:
    """The FIRST radio survey as its own catalog (for a second server).

    objID values overlap PhotoObj's id range so cross-match joins produce
    non-empty results.
    """
    rng = random.Random(seed)
    catalog = Catalog(name)
    positions = [
        (obj_id, rng.uniform(0, 360.0), rng.uniform(-60.0, 60.0))
        for obj_id in range(1, profile.photoobj_rows + 1)
    ]
    _populate_first(catalog, profile, rng, positions)
    return catalog


def build_federation(profile: ScaleProfile = SMALL) -> Federation:
    """The two-server federation every CLI and experiment replays against.

    SDSS on server ``sdss``, plus the FIRST radio survey on its own
    server ``first`` (the classic SkyQuery cross-match partner; DR1's
    crossmatch theme joins against it through the mediator's
    cross-server decomposition).
    """
    federation = Federation.single_site(build_sdss_catalog(profile), "sdss")
    federation.add_server(
        DatabaseServer("first", build_first_catalog(profile))
    )
    return federation


def _populate_first(
    catalog: Catalog,
    profile: ScaleProfile,
    rng: random.Random,
    positions: List[tuple],
) -> None:
    table = catalog.create_table(first_schema())
    sample = rng.sample(
        range(len(positions)), min(profile.first_rows, len(positions))
    )
    for n, idx in enumerate(sorted(sample), start=1):
        obj_id, ra, dec = positions[idx]
        table.insert(
            [
                20_000_000 + n,
                obj_id,
                ra,
                dec,
                abs(rng.gauss(2.5, 1.2)),
                abs(rng.gauss(3.5, 1.5)),
            ]
        )
    table.create_index("objID")
