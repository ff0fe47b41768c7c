"""Map-backs pinned to recorded answers: a digest of repr(map_back(c)) over
every brute-force image certificate of the acceptance and wild sweeps, so
a refactor of the map-backs must return exactly the same certificates."""

import hashlib

from potline.problems import UnmappableCert

from test_acceptance import map_back_families
from test_wild_sources import WILD_SWEEPS


def _digest(pairs) -> str:
    h = hashlib.sha256()
    for src, certs, map_back in pairs:
        for c in certs:
            try:
                out = repr(map_back(c))
            except UnmappableCert:
                out = "UnmappableCert"
            h.update(out.encode() + b"\n")
    return h.hexdigest()[:16]


# Recorded before the map-backs shared one shape.
PINNED = {
    'plcp->uso': 'b45bab4f4cb0f1c3',
    'plcp->eopl': 'c3c7e055445e96fa',
    'uso->opdc': 'a4878b9ed6431fc0',
    'contraction->opdc': 'dc5167a2f8bb2b6f',
    'opdc->ufeopl': 'b530f9206038e56c',
    'ufeopl->plus1': '43f1b79717349795',
    'plus1->ueopl': 'e8e54fc8b519ca9d',
    'normalize': '27adfe9e18271de6',
    'eopl->eoml': '790a4f940c372940',
    'eoml->eopl': '7f822953d607d363',
    'ueopl->opdc': '1b45d82c3eb29f5c',
    'wild/lcp': '200444fba61eb24f',
    'wild/orientations': 'eb7de0dadda4a1eb',
    'wild/opdc': 'f562cfffd52661cf',
    'wild/forward': 'f4878bf30050a56b',
    # Re-recorded when a stalled first pebbling move started pointing S(0)
    # off the line: 35 of the 40 sources gain one image certificate,
    # U1(x=0) -> UFP1(x=0); every other map-back is unchanged.
    'wild/plus1': 'c8cc11c1a471aefc',
}


def _families():
    yield from map_back_families()
    for name, sweep in WILD_SWEEPS.items():
        yield f"wild/{name}", [(src, certs, back) for _, src, certs, back in sweep()]


def test_map_backs_pinned():
    got = {name: _digest(pairs) for name, pairs in _families()}
    assert got == PINNED
