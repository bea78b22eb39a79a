"""Seeded click scripts and ingest batches over the recipe corpus.

Scripts and chip pools are drawn from the corpus and the workload seed
only — never from the program's suggestions — so every commit performs
the same navigation.  One session script is the paper's interaction:
open the Recipe type view, refine by a facet (cuisine), by an
ingredient, by a word of the directions, negate the cuisine chip,
refine by the two-hop ``ingredient/foodGroup`` path, go Back, and remove
the word chip.  Pools are chosen so that no view is empty or tiny and
every session's views have similar sizes whatever the seed: all
cuisines, ingredients of similar popularity, the generator's common
words, the larger food groups.  A run's sessions draw each chip from its
pool without replacement (:class:`Deck`), so every run covers the pools
alike whatever the seed.  Before every click after the open the session
counts six chips on offer; for a refining click the applied chip is
among them, so its count must equal the size of the view it then
produces.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterator

from repro.datasets.text import COMMON_WORDS, sentences
from repro.query.ast import HasValue, Path, PathStep, Predicate, TextMatch, TypeIs
from repro.rdf.terms import Literal
from repro.rdf.vocab import MAGNET, RDF, RDFS
from repro.service import commands as cmd
from repro.vsm.tokenizer import analyze

from chain import Click

#: Chips counted before each click after the open.
PREVIEWS_PER_CLICK = 6
#: Popularity ranks of the ingredients a session refines by: 8
#: ingredients of 402 to 513 recipes each.
INGREDIENT_RANKS = (7, 15)
#: The smallest food group a path refine targets.
MIN_GROUP = 12
#: Recipes per ingest batch.
BATCH_RECIPES = 20
#: Letters of the unique title tokens: no vowels, no suffix letters, so
#: stemming keeps each token whole.
_TOKEN_LETTERS = "bcfhkmptvwxz"


class Deck:
    """Draws from a pool without replacement, reshuffled when it runs out."""

    def __init__(self, rng, pool):
        self.rng = rng
        self.pool = list(pool)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = list(self.pool)
            self.rng.shuffle(self.left)
        return self.left.pop()


class RecipePools:
    """Chip pools of the recipe corpus."""

    def __init__(self, corpus):
        extras = corpus.extras
        props = extras["properties"]
        self.recipe_type = extras["types"]["Recipe"]
        self.p_cuisine = props["cuisine"]
        self.p_course = props["course"]
        self.p_method = props["method"]
        self.p_ingredient = props["ingredient"]
        self.p_group = props["foodGroup"]
        self.p_title = props["title"]
        self.p_directions = props["directions"]
        self.p_serves = props["serves"]
        self.p_prep = props["prepMinutes"]
        self.cuisines = [extras["cuisines"][n] for n in sorted(extras["cuisines"])]
        self.courses = [extras["courses"][n] for n in sorted(extras["courses"])]
        self.methods = [extras["methods"][n] for n in sorted(extras["methods"])]
        self.ingredient_names = {
            resource: name for name, resource in extras["ingredients"].items()
        }
        self.ingredients = [
            extras["ingredients"][n] for n in sorted(extras["ingredients"])
        ]
        uses = Counter(
            o for _s, _p, o in corpus.graph.triples(None, self.p_ingredient, None)
        )
        by_use = sorted(self.ingredients, key=lambda i: (-uses[i], i.n3()))
        #: Ingredients of similar popularity, so an ingredient refine on a
        #: cuisine view keeps a few dozen recipes whichever is drawn.
        self.popular = by_use[INGREDIENT_RANKS[0]:INGREDIENT_RANKS[1]]
        groups = extras["ingredient_groups"]
        #: Food groups with at least this many ingredients (similar reach).
        self.groups = sorted(g for g in groups if len(groups[g]) >= MIN_GROUP)
        #: Direction words that survive stop-word removal; the generator
        #: draws each with the same probability.
        self.words = [w for w in COMMON_WORDS if analyze(w)]
        self.path_steps = (PathStep(self.p_ingredient), PathStep(self.p_group))

    # -- session scripts --------------------------------------------------

    def _offer(self, rng, chosen, pool, make) -> list[Predicate]:
        """``chosen`` plus other candidates from ``pool``, seeded order."""
        others = [value for value in pool if value != chosen]
        picks = rng.sample(others, PREVIEWS_PER_CLICK - 1) + [chosen]
        rng.shuffle(picks)
        return [make(value) for value in picks]

    def cuisine_chip(self, value) -> Predicate:
        return HasValue(self.p_cuisine, value)

    def sessions(self, rng) -> Iterator[list[Click]]:
        """Scripted sessions (8 clicks each), drawn from ``rng``."""
        decks = [
            Deck(rng, pool)
            for pool in (self.cuisines, self.popular, self.words, self.groups)
        ]
        while True:
            yield self._session(rng, *(deck.draw() for deck in decks))

    def _session(self, rng, cuisine, ingredient, word, group) -> list[Click]:
        """One session refining by the given chips; previews from ``rng``."""
        ingredient_chip = HasValue(self.p_ingredient, ingredient)
        path_chip = Path(self.path_steps, Literal(group))

        def facets():
            return self._offer(
                rng, rng.choice(self.cuisines), self.cuisines, self.cuisine_chip
            )

        return [
            Click("open", cmd.RunQuery(TypeIs(self.recipe_type))),
            Click(
                "refine",
                cmd.Refine(self.cuisine_chip(cuisine)),
                self._offer(rng, cuisine, self.cuisines, self.cuisine_chip),
                self.cuisine_chip(cuisine),
            ),
            Click(
                "refine",
                cmd.Refine(ingredient_chip),
                self._offer(
                    rng,
                    ingredient,
                    self.popular,
                    lambda v: HasValue(self.p_ingredient, v),
                ),
                ingredient_chip,
            ),
            Click(
                "refine",
                cmd.SearchWithin(word),
                self._offer(rng, word, self.words, TextMatch),
                TextMatch(word),
            ),
            # Chips: 0 type, 1 cuisine, 2 ingredient, 3 word.
            Click("negate", cmd.NegateConstraint(1), facets()),
            Click(
                "refine",
                cmd.ApplyPath(self.path_steps, Literal(group)),
                self._offer(
                    rng,
                    group,
                    self.groups,
                    lambda g: Path(self.path_steps, Literal(g)),
                ),
                path_chip,
            ),
            Click("back", cmd.Back(), facets()),
            # Back restores chips 0 type, 1 ¬cuisine, 2 ingredient, 3 word.
            Click("remove", cmd.RemoveConstraint(3), facets()),
        ]

    # -- ingest batches ---------------------------------------------------

    @staticmethod
    def token(number: int) -> str:
        """The unique title token of the ``number``-th ingested recipe."""
        letters = []
        for _ in range(4):
            number, digit = divmod(number, len(_TOKEN_LETTERS))
            letters.append(_TOKEN_LETTERS[digit])
        return "zq" + "".join(letters)

    def batch(self, rng, ns, index: int) -> "Batch":
        """The ``index``-th N-Triples batch of new recipes."""
        lines = []
        every = []
        recipes = []
        tokens = {}
        for offset in range(BATCH_RECIPES):
            number = index * BATCH_RECIPES + offset
            recipe = ns[f"recipe/ingest{number:06d}"]
            cuisine = rng.choice(self.cuisines)
            course = rng.choice(self.courses)
            chosen = rng.sample(self.ingredients, rng.randint(3, 5))
            names = [self.ingredient_names[i] for i in chosen]
            token = self.token(number)
            title = f"{token.capitalize()} {names[0].title()} Stew"
            topical = [w for name in names for w in name.split()]
            triples = [
                (recipe, RDF.type, self.recipe_type),
                (recipe, self.p_cuisine, cuisine),
                (recipe, self.p_course, course),
                (recipe, self.p_method, rng.choice(self.methods)),
                (recipe, self.p_title, Literal(title)),
                (recipe, RDFS.label, Literal(title)),
                (recipe, self.p_directions, Literal(sentences(rng, topical))),
                (recipe, self.p_serves, Literal(rng.randint(1, 12))),
                (recipe, self.p_prep, Literal(rng.choice([10, 20, 30, 45, 60]))),
            ]
            triples += [(recipe, self.p_ingredient, i) for i in chosen]
            lines += [f"{s.n3()} {p.n3()} {o.n3()} ." for s, p, o in triples]
            every += triples
            recipes.append(recipe)
            tokens[recipe] = token
        return Batch(
            "\n".join(lines) + "\n", every, recipes, tokens
        )


@dataclass
class Batch:
    """One ingest batch and what the benchmark expects of it."""

    text: str
    triples: list
    recipes: list
    tokens: dict


#: Schema-annotation properties the text index does not index.
_NOT_TEXT = frozenset(
    {MAGNET.valueType, MAGNET.compose, MAGNET.hidden, MAGNET.importantProperty}
)


class RecipeOracle:
    """Extents of the scripts' chips by the benchmark's own set algebra.

    Built from the corpus triples and grown with each ingest batch's
    triples: facet chips from the (property, value) pairs, the
    ``ingredient/foodGroup`` path from each recipe's ingredients and each
    ingredient's group, and word chips from each recipe's analyzed
    string values (every word of the chip must occur).
    """

    def __init__(self, corpus, pools: RecipePools):
        graph = corpus.graph
        self.pools = pools
        self.recipes: set = set()
        self.values: defaultdict = defaultdict(set)
        self.ingredients: defaultdict = defaultdict(set)
        self.tokens: dict = {}
        self.group_of = {
            s: o for s, _p, o in graph.triples(None, pools.p_group, None)
        }
        self._memo: dict = {}
        for recipe in corpus.items:
            self._add(recipe, [(p, o) for _s, p, o in graph.triples(recipe, None, None)])

    def _add(self, recipe, pairs) -> None:
        self.recipes.add(recipe)
        tokens = set()
        for prop, value in pairs:
            self.values[(prop, value)].add(recipe)
            if prop == self.pools.p_ingredient:
                self.ingredients[recipe].add(value)
            if (
                isinstance(value, Literal)
                and prop not in _NOT_TEXT
                and not (value.is_numeric or value.is_temporal)
            ):
                tokens.update(analyze(value.lexical))
        self.tokens[recipe] = frozenset(tokens)

    def add_batch(self, batch: Batch) -> None:
        pairs = defaultdict(list)
        for s, p, o in batch.triples:
            pairs[s].append((p, o))
        for recipe, recipe_pairs in pairs.items():
            self._add(recipe, recipe_pairs)
        self._memo.clear()

    def extent(self, chip) -> frozenset:
        found = self._memo.get(chip)
        if found is None:
            found = frozenset(self._extent(chip))
            self._memo[chip] = found
        return found

    def _extent(self, chip):
        if isinstance(chip, TypeIs):
            if chip.value != self.pools.recipe_type:
                raise ValueError(f"no oracle for {chip!r}")
            return self.recipes
        if isinstance(chip, HasValue):
            return self.values.get((chip.prop, chip.value), set()) & self.recipes
        if isinstance(chip, Path) and chip.steps == self.pools.path_steps:
            return {
                recipe
                for recipe, ingredients in self.ingredients.items()
                if any(self.group_of.get(i) == chip.value for i in ingredients)
            }
        if isinstance(chip, TextMatch) and chip.within is None:
            words = analyze(chip.text)
            if not words:
                return set()
            return {
                recipe
                for recipe, tokens in self.tokens.items()
                if all(word in tokens for word in words)
            }
        raise ValueError(f"no oracle for {chip!r}")
