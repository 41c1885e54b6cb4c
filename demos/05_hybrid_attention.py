"""Walkthrough: the two self-attention priority orderings.

Global priority projects queries/keys/values over the whole sequence and
then splits heads (every token attends to every token); local priority
segments the sequence into windows first (attention stays inside each
window).  Bridge legs pick their variant by direction: forward legs
attend globally, reverse legs locally.
"""

import numpy as np

import diffbridge as db
from diffbridge.attention import (
    AttentionConfig,
    Direction,
    Priority,
    attention_forward,
    select_priority,
)

rng = np.random.default_rng(0)
tokens = rng.standard_normal((8, 8))

g = db.init_attention(8, 8, heads=2, windows=1, priority=Priority.GLOBAL_FIRST, seed=1)
l = AttentionConfig(
    token_count=8, model_dim=8, heads=2, windows=4, priority=Priority.LOCAL_FIRST,
    w_query=g.w_query, w_key=g.w_key, w_value=g.w_value, w_output=g.w_output,
)

print("direction rule:")
for direction in Direction:
    print(f"  {direction.name.lower():>7} leg -> {select_priority(direction).value}")

print("\nlocality: bump token 2 (window 1 of 4) and diff the outputs per token")
base = attention_forward(l, tokens)
bumped = tokens.copy()
bumped[2] += 1.0
delta = np.abs(attention_forward(l, bumped) - base).max(axis=1)
for i, d in enumerate(delta):
    marker = " <- same window" if 0 < d else ""
    print(f"  token {i}: max change {d:.3e}{marker}")

print("\nglobal attention spreads the same bump to every token:")
gbase = attention_forward(g, tokens)
gdelta = np.abs(attention_forward(g, bumped) - gbase).max(axis=1)
print(f"  min change across tokens: {gdelta.min():.3e} (all nonzero)")

l1 = AttentionConfig(
    token_count=8, model_dim=8, heads=2, windows=1, priority=Priority.LOCAL_FIRST,
    w_query=g.w_query, w_key=g.w_key, w_value=g.w_value, w_output=g.w_output,
)
gap = np.abs(attention_forward(l1, tokens) - attention_forward(g, tokens)).max()
print(f"\nwith one window the two orderings coincide: max gap {gap:.2e}")
