"""Shared fixtures: a small astronomy catalog and federation."""

from __future__ import annotations

import pytest

from repro.federation import Federation, Mediator
from repro.sqlengine import Catalog, Column, ColumnType, TableSchema

BIGINT = ColumnType.BIGINT
INT = ColumnType.INT
FLOAT = ColumnType.FLOAT
STRING = ColumnType.STRING


def make_photo_schema() -> TableSchema:
    return TableSchema(
        "PhotoObj",
        [
            Column("objID", BIGINT),
            Column("ra", FLOAT),
            Column("dec", FLOAT),
            Column("type", INT),
            Column("modelMag_g", FLOAT),
            Column("modelMag_r", FLOAT),
        ],
    )


def make_spec_schema() -> TableSchema:
    return TableSchema(
        "SpecObj",
        [
            Column("specObjID", BIGINT),
            Column("objID", BIGINT),
            Column("z", FLOAT),
            Column("zConf", FLOAT),
            Column("specClass", INT),
        ],
    )


@pytest.fixture
def photo_schema() -> TableSchema:
    return make_photo_schema()


@pytest.fixture
def spec_schema() -> TableSchema:
    return make_spec_schema()


def build_catalog() -> Catalog:
    """A deterministic 20-row PhotoObj / 10-row SpecObj catalog."""
    catalog = Catalog("unit")
    photo = catalog.create_table(make_photo_schema())
    for i in range(20):
        photo.insert(
            [
                i + 1,
                float(i * 10),            # ra: 0..190
                float(i - 10),            # dec: -10..9
                i % 3,                    # type
                15.0 + i * 0.5,           # modelMag_g
                14.0 + i * 0.5,           # modelMag_r
            ]
        )
    spec = catalog.create_table(make_spec_schema())
    for i in range(10):
        spec.insert(
            [
                1000 + i,
                2 * i + 1,                # joins odd objIDs
                0.01 * i,                 # z
                0.80 + 0.02 * i,          # zConf
                i % 4,                    # specClass
            ]
        )
    return catalog


@pytest.fixture
def catalog() -> Catalog:
    return build_catalog()


@pytest.fixture
def engine(catalog):
    from repro.sqlengine import QueryEngine

    return QueryEngine(catalog)


@pytest.fixture
def federation(catalog) -> Federation:
    return Federation.single_site(catalog, server_name="sdss")


@pytest.fixture
def mediator(federation) -> Mediator:
    return Mediator(federation)
