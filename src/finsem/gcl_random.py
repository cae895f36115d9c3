"""Seeded random programs and expressions of the guarded-command language,
for the tests and ``gcl.check_roundtrip``'s random posts, kept out of ``gcl``
so that ``wp`` and ``run`` do not compile them."""

from fractions import Fraction

from .gcl import (Abort, Assign, Bin, Choose, If, Lit, Prob, Program, Seq, Skip, Unary, Var,
                  VarDecl)

# statement nesting depth bound of random_program
MAX_PROGRAM_DEPTH = 5


def random_int_expr(rng, decls, depth):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Lit(rng.randint(0, 3))
        return Var(rng.choice(decls).name)
    op = rng.choice(["+", "-", "*"])
    return Bin(op, random_int_expr(rng, decls, depth - 1),
               random_int_expr(rng, decls, depth - 1))


def random_bool_expr(rng, decls, depth):
    if depth <= 0 or rng.random() < 0.5:
        op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
        return Bin(op, random_int_expr(rng, decls, 1), random_int_expr(rng, decls, 1))
    combiner = rng.choice(["&&", "||", "!"])
    if combiner == "!":
        return Unary("!", random_bool_expr(rng, decls, depth - 1))
    return Bin(combiner, random_bool_expr(rng, decls, depth - 1),
               random_bool_expr(rng, decls, depth - 1))


def random_stmt(rng, decls, mode, depth):
    if depth <= 0:
        roll = rng.random()
        if roll < 0.6:
            d = rng.choice(decls)
            return Assign(d.name, random_int_expr(rng, decls, 2))
        if roll < 0.8:
            return Skip()
        if mode == "pow":
            return Abort() if rng.random() < 0.3 else Skip()
        return Skip()
    roll = rng.random()
    if roll < 0.35:
        return Seq(random_stmt(rng, decls, mode, depth - 1),
                   random_stmt(rng, decls, mode, depth - 1))
    if roll < 0.55:
        return If(random_bool_expr(rng, decls, 2),
                  random_stmt(rng, decls, mode, depth - 1),
                  random_stmt(rng, decls, mode, depth - 1))
    if roll < 0.8:
        if mode == "pow":
            return Choose(random_stmt(rng, decls, mode, depth - 1),
                          random_stmt(rng, decls, mode, depth - 1))
        chance = Fraction(rng.randint(0, 4), 4)
        return Prob(chance, random_stmt(rng, decls, mode, depth - 1),
                    random_stmt(rng, decls, mode, depth - 1))
    d = rng.choice(decls)
    return Assign(d.name, random_int_expr(rng, decls, 2))


def random_program(rng, mode):
    decls = (VarDecl("x", 0, rng.randint(1, 7)), VarDecl("y", 0, rng.randint(1, 5)))
    body = random_stmt(rng, decls, mode, rng.randint(1, MAX_PROGRAM_DEPTH))
    return Program(decls, body)
