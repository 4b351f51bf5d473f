"""Synthetic MovieLens-1M-format corpus with planted interaction structure.

Ratings are generated from hidden user/movie groups through a small number of
sharply selective field-pair interactions: most (group, group) cells are near
zero and a few carry large weight, so models that weight pairwise crossings
per example have genuine headroom over a plain factorization machine or an
unstructured MLP.  The remaining fields are pure noise.  Output files use the
exact ::-delimited layout of the real corpus.

The benchmark keeps its own copy of the test-suite generator so that an edit
to the tests cannot change benchmark inputs.  Unlike the test copy, it draws
the population (side files and planted interaction tables) from
`structure_seed` and only the ratings sample from `seed`, so that runs with
different seeds measure the same workload on different samples of it.
"""

import os

import numpy as np

GENRES = [
    "Action", "Adventure", "Animation", "Comedy", "Crime", "Documentary",
    "Drama", "Fantasy", "Horror", "Musical", "Mystery", "Romance",
    "Sci-Fi", "Thriller", "War", "Western",
]
AGES = [1, 18, 25, 35, 45, 50, 56]


def write_ml1m(out_dir, n_users=240, n_movies=320, n_ratings=9600, seed=0, structure_seed=0):
    """Write users.dat / movies.dat / ratings.dat; returns the rating count."""
    gen = np.random.default_rng(structure_seed)
    os.makedirs(out_dir, exist_ok=True)

    user_group = gen.integers(0, 4, size=n_users + 1)
    gender = np.where(gen.uniform(size=n_users + 1) < 0.55, "M", "F")
    age_idx = gen.integers(0, len(AGES), size=n_users + 1)
    occupation = gen.integers(0, 21, size=n_users + 1)

    movie_group = gen.integers(0, 4, size=n_movies + 1)
    n_genres = gen.integers(1, 4, size=n_movies + 1)
    movie_genres = []
    for m in range(n_movies + 1):
        picks = gen.choice(len(GENRES), size=n_genres[m], replace=False)
        movie_genres.append(sorted(int(p) for p in picks))
    lead_genre = np.array([gs[0] for gs in movie_genres])

    with open(os.path.join(out_dir, "users.dat"), "w", encoding="latin-1") as fh:
        for u in range(1, n_users + 1):
            fh.write(f"{u}::{gender[u]}::{AGES[age_idx[u]]}::{occupation[u]}::{u % 100:05d}\n")
    with open(os.path.join(out_dir, "movies.dat"), "w", encoding="latin-1") as fh:
        for m in range(1, n_movies + 1):
            names = "|".join(GENRES[g] for g in movie_genres[m])
            fh.write(f"{m}::Film {m} ({1980 + m % 25})::{names}\n")

    # interaction tables over the hidden groups; sparsify so a handful of
    # cells dominate and the rest are background
    def spiky(shape):
        table = gen.normal(0.0, 1.0, size=shape)
        strong = np.abs(table) > np.quantile(np.abs(table), 0.7)
        return np.where(strong, 2.0 * table, 0.15 * table)

    pair_ug_mg = spiky((4, 4))
    pair_ug_genre = spiky((4, len(GENRES)))

    gen = np.random.default_rng(seed)

    users = gen.integers(1, n_users + 1, size=n_ratings)
    movies = gen.integers(1, n_movies + 1, size=n_ratings)
    ug = user_group[users]
    mg = movie_group[movies]
    lead = lead_genre[movies]
    score = (
        1.5 * pair_ug_mg[ug, mg]
        + 1.0 * pair_ug_genre[ug, lead]
        + 0.5 * gen.normal(size=n_ratings)
    )
    # quantile buckets: ~45% of ratings land at 4-5 stars
    cuts = np.quantile(score, [0.18, 0.37, 0.55, 0.80])
    ratings = np.digitize(score, cuts) + 1

    ts = 965000000 + np.cumsum(gen.integers(10, 2000, size=n_ratings))
    with open(os.path.join(out_dir, "ratings.dat"), "w", encoding="latin-1") as fh:
        for i in range(n_ratings):
            fh.write(f"{users[i]}::{movies[i]}::{ratings[i]}::{ts[i]}\n")
    return n_ratings
