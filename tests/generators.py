"""Seeded random generators shared across the tests.

Everything here takes an explicit ``random.Random`` so test runs are
reproducible; the hypothesis strategies at the bottom mirror the same
shapes for property tests.
"""

from hypothesis import strategies as st

from lleekit.chart import Chart, TERMINATION, Transition
from lleekit.expr import Action, Plus, Seq, Star, Zero

_ACTIONS = ("a", "b", "c")


def random_expression(rng, budget):
    """A random expression with at most ``budget`` syntax-tree nodes."""
    if budget < 3 or rng.random() < 0.25:
        return Zero() if rng.random() < 0.15 else Action(rng.choice(_ACTIONS))
    op = rng.choice((Plus, Seq, Star))
    left_budget = rng.randint(1, budget - 2)
    return op(
        random_expression(rng, left_budget),
        random_expression(rng, budget - 1 - left_budget),
    )


def random_chart(rng, max_nodes=8, alphabet=("a", "b"), rooted=False):
    """A random chart: up to 3 out-transitions per node, 25% terminal.

    With ``rooted=True`` the chart is restricted to what the first node
    reaches and carries it as the initial node.
    """
    count = rng.randint(1, max_nodes)
    names = ["n%d" % i for i in range(count)]
    transitions = []
    for src in names:
        for _ in range(rng.randint(0, 3)):
            action = rng.choice(alphabet)
            if rng.random() < 0.25:
                transitions.append(Transition(src, action, TERMINATION))
            else:
                transitions.append(Transition(src, action, rng.choice(names)))
    if not rooted:
        return Chart(transitions, nodes=names)
    loose = Chart(transitions, nodes=names)
    keep = loose.reachable([names[0]])
    return Chart(
        [t for t in loose.transitions if t.src in keep],
        nodes=keep,
        initial=names[0],
    )


# --- hypothesis strategies ---------------------------------------------------

expressions = st.recursive(
    st.sampled_from([Action("a"), Action("b"), Action("c"), Zero()]),
    lambda sub: st.one_of(
        st.builds(Plus, sub, sub),
        st.builds(Seq, sub, sub),
        st.builds(Star, sub, sub),
    ),
    max_leaves=20,
)


@st.composite
def charts(draw, max_nodes=5, max_transitions=12):
    count = draw(st.integers(1, max_nodes))
    names = ["n%d" % i for i in range(count)]
    triples = draw(
        st.lists(
            st.tuples(
                st.sampled_from(names),
                st.sampled_from(("a", "b")),
                st.sampled_from(names + ["!"]),
            ),
            max_size=max_transitions,
        )
    )
    return Chart(
        [
            Transition(src, act, TERMINATION if dst == "!" else dst)
            for src, act, dst in triples
        ],
        nodes=names,
    )
