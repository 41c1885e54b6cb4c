"""Generated inputs for the file parsers: a result, or else a ValueError, and nothing else."""

import copy
import json
import struct
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import diffbridge as db
from diffbridge.attention import Priority
from diffbridge.config import RunConfig

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A scratch path, and the header and payload of a small valid checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    att = db.init_attention(2, 4, heads=2, priority=Priority.LOCAL_FIRST, seed=1)
    model = db.init_mlp((8,), (6,), steps_total=10, time_dim=4, attention=att, seed=2)
    db.save_checkpoint(model, root / "valid.ckpt")
    raw = (root / "valid.ckpt").read_bytes()
    header_len = struct.unpack("<I", raw[8:12])[0]
    return root / "case", json.loads(raw[12 : 12 + header_len]), raw[12 + header_len :]


def _checkpoint(header, payload) -> bytes:
    blob = json.dumps(header).encode()
    return db.denoiser.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blob)) + blob + payload


def _load_checkpoint(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        model = db.load_checkpoint(path)
    except ValueError:
        return
    assert isinstance(model, db.MlpDenoiser)


@given(header=JSON, payload=st.binary(max_size=64))
def test_checkpoint_with_generated_header(files, header, payload):
    path, _, _ = files
    _load_checkpoint(path, _checkpoint(header, payload))


@given(data=st.data())
def test_checkpoint_with_one_entry_of_a_valid_header_changed(files, data):
    path, valid_header, valid_payload = files
    header = copy.deepcopy(valid_header)
    where = data.draw(st.sampled_from(["header", "array", "attention"]))
    if where == "array":
        owner = header["arrays"][data.draw(st.integers(0, len(header["arrays"]) - 1))]
    else:
        owner = header if where == "header" else header["attention"]
    key = data.draw(st.sampled_from(sorted(owner) + ["extra"]))
    if data.draw(st.booleans()):
        owner.pop(key, None)
    else:
        owner[key] = data.draw(JSON)
    cut = data.draw(st.integers(-16, 16))
    payload = valid_payload[: len(valid_payload) + cut] if cut < 0 else valid_payload + bytes(cut)
    _load_checkpoint(path, _checkpoint(header, payload))


def _divisor(data, n: int) -> int:
    return data.draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))


@settings(max_examples=50)
@given(data=st.data())
def test_checkpoint_round_trip_keeps_every_byte(files, data):
    """init_mlp -> save_checkpoint -> load_checkpoint over generated geometries."""
    field_shape = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    size = int(np.prod(field_shape))
    attention = None
    if data.draw(st.booleans()):
        tokens = _divisor(data, size)
        dim = size // tokens
        attention = db.init_attention(
            tokens, dim, heads=_divisor(data, dim), windows=_divisor(data, tokens),
            priority=data.draw(st.sampled_from(list(Priority))), seed=data.draw(st.integers(0, 9)),
        )
    model = db.init_mlp(
        field_shape,
        data.draw(st.lists(st.integers(1, 8), max_size=2)),
        steps_total=data.draw(st.integers(1, 100)),
        time_dim=2 * data.draw(st.integers(1, 4)),
        attention=attention,
        seed=data.draw(st.integers(0, 9)),
    )
    path = files[0]
    db.save_checkpoint(model, path)
    back = db.load_checkpoint(path)

    def geometry(m):
        a = m.attention
        att = a and (a.token_count, a.model_dim, a.heads, a.windows, a.priority)
        return m.field_shape, m.widths, m.steps_total, m.time_dim, att

    assert geometry(back) == geometry(model)
    assert [(n, a.shape, a.tobytes()) for n, a in back.named_parameters()] == [
        (n, a.shape, a.tobytes()) for n, a in model.named_parameters()
    ]
    rng = np.random.default_rng(size)
    x = rng.standard_normal((3, *field_shape))
    t = rng.uniform(0, model.steps_total, 3)
    assert back.predict_epsilon(x, t).tobytes() == model.predict_epsilon(x, t).tobytes()


PGM_PIECES = [b" ", b"\n", b"\t", b"#c\n", b"#", b"0", b"1", b"2", b"3", b"16", b"255", b"256",
              b"-1", b"65536", b"x", b"P5"]


@given(
    data=st.binary(max_size=64)
    | st.builds(
        lambda pieces, tail: b"P5" + b"".join(pieces) + tail,
        st.lists(st.sampled_from(PGM_PIECES), max_size=10),
        st.binary(max_size=40),
    )
    | st.builds(
        lambda w, h, pixels: b"P5\n%d %d\n255\n" % (w, h) + pixels,
        st.integers(-1, 5),
        st.integers(-1, 5),
        st.binary(max_size=30),
    )
)
def test_pgm_with_generated_bytes(files, data):
    path = files[0]
    path.write_bytes(data)
    try:
        field = db.load_pgm(path)
    except ValueError:
        return
    assert isinstance(field, np.ndarray) and field.ndim == 2
    assert np.all((field >= -1.0) & (field <= 1.0))


# Each config section and the field names it takes.
SECTIONS = {
    f.name: [g.name for g in fields(f.default_factory)]
    for f in fields(RunConfig)
    if is_dataclass(f.default_factory)
}
# Integers past the float range too: json.loads gives them for long literals.
NUMBER = st.floats() | st.integers(-(2**1030), 2**1030)
CONFIG_VALUE = JSON | NUMBER | st.lists(NUMBER, max_size=4)


@given(data=st.data())
def test_config_with_generated_fields(data):
    """Only parsed: building a fuzzed config could allocate without bound."""
    keys = [f.name for f in fields(RunConfig)] + ["extra"]
    raw = {}
    for key in data.draw(st.lists(st.sampled_from(keys), max_size=6, unique=True)):
        if key in SECTIONS and data.draw(st.booleans()):
            names = st.sampled_from(SECTIONS[key] + ["extra"])
            raw[key] = data.draw(st.dictionaries(names, CONFIG_VALUE, max_size=4))
        else:
            raw[key] = data.draw(CONFIG_VALUE)
    try:
        cfg = RunConfig.from_dict(raw)
    except ValueError:
        return
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
