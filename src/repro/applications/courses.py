"""The paper's running example: the courses/students registrar.

Sections 3.2, 4.2 and 5.2 develop one database application through all
three levels:

* **Information level** (Section 3.2): sorts ``student`` and
  ``course``; db-predicates ``offered(c)`` and ``takes(s, c)``; the
  static constraint "a student cannot take a course that is not being
  offered" and the transition constraint "the number of courses taken
  by a student cannot drop to zero".

* **Functions level** (Section 4.2): queries ``offered`` and ``takes``;
  updates ``initiate``, ``offer``, ``cancel``, ``enroll`` and
  ``transfer``; and fifteen Q-equations (:func:`courses_equations`
  reproduces them; equation 6 is rendered as the two conditional
  equations the paper derives from the biconditional).

* **Representation level** (Section 5.2): the RPR schema (see
  :func:`courses_schema_source`; note the paper's schema misprints
  ``OFFERED(Students)`` for ``OFFERED(Courses)``, corrected here).

Domain sizes are parameters of every factory so that experiments can
scale the example.
"""

from __future__ import annotations

from repro.algebraic.description import (
    STATE_VAR,
    Effect,
    StructuredDescription,
    initial_equations,
    synthesize_equations,
)
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.signature import AlgebraicSignature
from repro.algebraic.spec import AlgebraicSpec
from repro.core.framework import DesignFramework
from repro.information.spec import InformationSpec
from repro.logic import formulas as fm
from repro.logic.parser import parse_formula
from repro.logic.signature import Signature
from repro.logic.sorts import Sort
from repro.logic.terms import Var

__all__ = [
    "STUDENT",
    "COURSE",
    "default_students",
    "default_courses",
    "courses_information",
    "courses_information_carriers",
    "courses_signature",
    "courses_equations",
    "courses_descriptions",
    "courses_algebraic",
    "courses_synthesized",
    "courses_schema_source",
    "courses_framework",
]

#: Sort of students (shared between levels 1 and 2).
STUDENT = Sort("student")

#: Sort of courses (shared between levels 1 and 2).
COURSE = Sort("course")


def default_students(count: int = 2) -> list[str]:
    """Student names ``s1..s<count>``."""
    return [f"s{i}" for i in range(1, count + 1)]


def default_courses(count: int = 2) -> list[str]:
    """Course names ``c1..c<count>``."""
    return [f"c{i}" for i in range(1, count + 1)]


# ---------------------------------------------------------------------
# Information level (Section 3.2)
# ---------------------------------------------------------------------
def courses_information() -> InformationSpec:
    """The theory T1 = (L1, A1) of Section 3.2.

    Axiom (1): ``~exists s, c. takes(s, c) & ~offered(c)``
    Axiom (2): equivalently to the paper's negative form, the Section
    4.4d rendering ``forall s, c. [](takes(s, c) ->
    [](exists c'. takes(s, c')))``.
    """
    signature = Signature(sorts=[STUDENT, COURSE])
    signature.add_predicate("offered", [COURSE], db=True)
    signature.add_predicate("takes", [STUDENT, COURSE], db=True)
    static = parse_formula(
        "~exists s:student, c:course. takes(s, c) & ~offered(c)",
        signature,
    )
    transition = parse_formula(
        "forall s:student, c:course."
        " [](takes(s, c) -> [](exists c_other:course. takes(s, c_other)))",
        signature,
        allow_modal=True,
    )
    return InformationSpec(
        signature, (static, transition), name="courses registrar"
    )


def courses_information_carriers(
    students: list[str] | None = None, courses: list[str] | None = None
) -> dict[Sort, list[str]]:
    """Finite carriers for the information level's sorts."""
    return {
        STUDENT: students if students is not None else default_students(),
        COURSE: courses if courses is not None else default_courses(),
    }


# ---------------------------------------------------------------------
# Functions level (Section 4.2)
# ---------------------------------------------------------------------
def courses_signature(
    students: list[str] | None = None, courses: list[str] | None = None
) -> AlgebraicSignature:
    """The algebraic language L2 of Section 4.2.

    Queries: ``offered: <course, state, Boolean>`` and
    ``takes: <student, course, state, Boolean>``.
    Updates: ``initiate``, ``offer(c)``, ``cancel(c)``,
    ``enroll(s, c)``, ``transfer(s, c, c')``.
    """
    signature = AlgebraicSignature("courses")
    student = signature.add_parameter_sort("student")
    course = signature.add_parameter_sort("course")
    signature.add_parameter_values(
        student, students if students is not None else default_students()
    )
    signature.add_parameter_values(
        course, courses if courses is not None else default_courses()
    )
    signature.add_query("offered", [course])
    signature.add_query("takes", [student, course])
    signature.add_initial("initiate")
    signature.add_update("offer", [course])
    signature.add_update("cancel", [course])
    signature.add_update("enroll", [student, course])
    signature.add_update("transfer", [student, course, course])
    return signature


def courses_equations(
    signature: AlgebraicSignature,
) -> list[ConditionalEquation]:
    """The fifteen Q-equations of Section 4.2, verbatim.

    Equation numbering follows the paper; equation 6 (a biconditional)
    is split into the two conditional equations 6a/6b the paper itself
    derives.
    """
    student = signature.logic.sort("student")
    course = signature.logic.sort("course")
    s = Var("s", student)
    s2 = Var("s2", student)
    c = Var("c", course)
    c2 = Var("c2", course)
    c3 = Var("c3", course)
    u = STATE_VAR
    true = signature.true()
    false = signature.false()

    def offered(course_term, state_term):
        return signature.apply_query("offered", course_term, state_term)

    def takes(student_term, course_term, state_term):
        return signature.apply_query(
            "takes", student_term, course_term, state_term
        )

    initiate = signature.initial_term()
    offer = lambda ct, st: signature.apply_update("offer", ct, st)
    cancel = lambda ct, st: signature.apply_update("cancel", ct, st)
    enroll = lambda s_t, ct, st: signature.apply_update(
        "enroll", s_t, ct, st
    )
    transfer = lambda s_t, c_from, c_to, st: signature.apply_update(
        "transfer", s_t, c_from, c_to, st
    )

    def neq(left, right):
        return fm.Not(fm.Equals(left, right))

    someone_takes_c = fm.Exists(
        s2, fm.Equals(takes(s2, c, u), true)
    )

    return [
        # 1. offered(c, initiate) = False
        ConditionalEquation(offered(c, initiate), false, None, "eq1"),
        # 2. takes(s, c, initiate) = False
        ConditionalEquation(takes(s, c, initiate), false, None, "eq2"),
        # 3. offered(c, offer(c, U)) = True
        ConditionalEquation(offered(c, offer(c, u)), true, None, "eq3"),
        # 4. c != c' => offered(c, offer(c', U)) = offered(c, U)
        ConditionalEquation(
            offered(c, offer(c2, u)), offered(c, u), neq(c, c2), "eq4"
        ),
        # 5. takes(s, c, offer(c', U)) = takes(s, c, U)
        ConditionalEquation(
            takes(s, c, offer(c2, u)), takes(s, c, u), None, "eq5"
        ),
        # 6a. exists s'(takes(s', c, U) = True)
        #       => offered(c, cancel(c, U)) = True
        ConditionalEquation(
            offered(c, cancel(c, u)), true, someone_takes_c, "eq6a"
        ),
        # 6b. ~exists s'(takes(s', c, U) = True)
        #       => offered(c, cancel(c, U)) = False
        ConditionalEquation(
            offered(c, cancel(c, u)),
            false,
            fm.Not(someone_takes_c),
            "eq6b",
        ),
        # 7. c != c' => offered(c, cancel(c', U)) = offered(c, U)
        ConditionalEquation(
            offered(c, cancel(c2, u)), offered(c, u), neq(c, c2), "eq7"
        ),
        # 8. takes(s, c, cancel(c', U)) = takes(s, c, U)
        ConditionalEquation(
            takes(s, c, cancel(c2, u)), takes(s, c, u), None, "eq8"
        ),
        # 9. offered(c, enroll(s, c', U)) = offered(c, U)
        ConditionalEquation(
            offered(c, enroll(s, c2, u)), offered(c, u), None, "eq9"
        ),
        # 10. takes(s, c, enroll(s, c, U)) = offered(c, U)
        #     (the paper simplifies "offered(c,U) or takes(s,c,U)" via
        #     the static constraint takes => offered)
        ConditionalEquation(
            takes(s, c, enroll(s, c, u)), offered(c, u), None, "eq10"
        ),
        # 11. s != s' | c != c'
        #       => takes(s, c, enroll(s', c', U)) = takes(s, c, U)
        ConditionalEquation(
            takes(s, c, enroll(s2, c2, u)),
            takes(s, c, u),
            fm.Or(neq(s, s2), neq(c, c2)),
            "eq11",
        ),
        # 12. offered(c, transfer(s, c', c'', U)) = offered(c, U)
        ConditionalEquation(
            offered(c, transfer(s, c2, c3, u)),
            offered(c, u),
            None,
            "eq12",
        ),
        # 13. takes(s, c', transfer(s, c, c', U)) =
        #       (offered(c', U) & takes(s, c, U)) | takes(s, c', U)
        ConditionalEquation(
            takes(s, c2, transfer(s, c, c2, u)),
            signature.or_(
                signature.and_(offered(c2, u), takes(s, c, u)),
                takes(s, c2, u),
            ),
            None,
            "eq13",
        ),
        # 14. takes(s, c, transfer(s, c, c', U)) =
        #       (~offered(c', U) | takes(s, c', U)) & takes(s, c, U)
        ConditionalEquation(
            takes(s, c, transfer(s, c, c2, u)),
            signature.and_(
                signature.or_(
                    signature.not_(offered(c2, u)), takes(s, c2, u)
                ),
                takes(s, c, u),
            ),
            None,
            "eq14",
        ),
        # 15. s != s' | (c != c'' & c != c''')
        #       => takes(s, c, transfer(s', c'', c''', U)) = takes(s, c, U)
        ConditionalEquation(
            takes(s, c, transfer(s2, c2, c3, u)),
            takes(s, c, u),
            fm.Or(neq(s, s2), fm.And(neq(c, c2), neq(c, c3))),
            "eq15",
        ),
    ]


def courses_descriptions(
    signature: AlgebraicSignature,
) -> list[StructuredDescription]:
    """The structured descriptions of Section 4.2 for all four updates.

    The description of ``cancel`` is quoted in the paper; the other
    three are recovered from the procedures of Section 5.2 (whose
    if-conditions are exactly the preconditions).
    """
    student = signature.logic.sort("student")
    course = signature.logic.sort("course")
    s = Var("s", student)
    s2 = Var("s2", student)
    c = Var("c", course)
    c2 = Var("c2", course)
    u = STATE_VAR
    true = signature.true()

    def offered(course_term, state_term):
        return signature.apply_query("offered", course_term, state_term)

    def takes(student_term, course_term, state_term):
        return signature.apply_query(
            "takes", student_term, course_term, state_term
        )

    return [
        StructuredDescription(
            update="offer",
            params=(c,),
            precondition=None,
            effects=(Effect("offered", (c,), True),),
            doc="course c is offered at the new state",
        ),
        StructuredDescription(
            update="cancel",
            params=(c,),
            precondition=fm.Not(
                fm.Exists(s2, fm.Equals(takes(s2, c, u), true))
            ),
            effects=(Effect("offered", (c,), False),),
            doc=(
                "course c is cancelled, providing that no student is "
                "taking it"
            ),
        ),
        StructuredDescription(
            update="enroll",
            params=(s, c),
            precondition=fm.Equals(offered(c, u), true),
            effects=(Effect("takes", (s, c), True),),
            doc="student s enrolls in course c if it is offered",
        ),
        StructuredDescription(
            update="transfer",
            params=(s, c, c2),
            precondition=fm.And(
                fm.Equals(takes(s, c, u), true),
                fm.And(
                    fm.Not(fm.Equals(takes(s, c2, u), true)),
                    fm.Equals(offered(c2, u), true),
                ),
            ),
            effects=(
                Effect("takes", (s, c), False),
                Effect("takes", (s, c2), True),
            ),
            doc=(
                "student s moves from course c to course c' when "
                "taking c, not taking c', and c' is offered"
            ),
        ),
    ]


def courses_algebraic(
    students: list[str] | None = None, courses: list[str] | None = None
) -> AlgebraicSpec:
    """T2 = (L2, A2) with the paper's hand-written equations."""
    signature = courses_signature(students, courses)
    return AlgebraicSpec(
        signature,
        tuple(courses_equations(signature)),
        name="courses registrar (paper equations)",
    )


def courses_synthesized(
    students: list[str] | None = None, courses: list[str] | None = None
) -> AlgebraicSpec:
    """T2 with equations synthesized from the structured descriptions
    (the Section 4.2 methodology, mechanized)."""
    signature = courses_signature(students, courses)
    equations = initial_equations(signature) + synthesize_equations(
        signature, courses_descriptions(signature)
    )
    return AlgebraicSpec(
        signature,
        tuple(equations),
        name="courses registrar (synthesized equations)",
    )


def courses_schema_source() -> str:
    """The RPR schema of Section 5.2 as concrete syntax.

    The paper's text misprints the declaration of OFFERED as
    ``OFFERED(Students)``; it is corrected to ``OFFERED(Courses)``
    here, as required by every use in the procedures.
    """
    return """
schema
  OFFERED(Courses);
  TAKES(Students, Courses);

  proc initiate() =
    (TAKES := {} ; OFFERED := {})

  proc offer(c) =
    insert OFFERED(c)

  proc cancel(c) =
    if ~exists s: Students. TAKES(s, c)
    then delete OFFERED(c)

  proc enroll(s, c) =
    if OFFERED(c)
    then insert TAKES(s, c)

  proc transfer(s, c, c2) =
    if TAKES(s, c) & ~TAKES(s, c2) & OFFERED(c2)
    then (delete TAKES(s, c) ; insert TAKES(s, c2))
end-schema
"""


def courses_framework(
    students: list[str] | None = None, courses: list[str] | None = None
) -> DesignFramework:
    """The complete three-level courses registrar, ready to verify."""
    return DesignFramework.from_sources(
        information=courses_information(),
        algebraic=courses_algebraic(students, courses),
        schema_source=courses_schema_source(),
        carriers=courses_information_carriers(students, courses),
        name="courses registrar (the paper's running example)",
    )
