(** A miniature C preprocessor.

    Handles the directives our benchmark suite and examples need:
    object-like and function-like [#define] (without [#] / [##] operators),
    [#undef], [#ifdef] / [#ifndef] / [#else] / [#endif] (nesting allowed),
    and [#include], which is ignored (all analysis inputs are
    self-contained; library functions are modeled by {!Sema}).  Macro
    expansion is textual but identifier-boundary- and string-literal-aware,
    and recursive self-expansion is cut off as in a real preprocessor.

    Output is a flat string with directives removed, suitable for
    {!Lexer.tokenize}.  Line structure is preserved so token positions
    still point into the original file. *)

val run : ?defines:(string * string) list -> file:string -> string -> string
(** [run ~defines ~file src] preprocesses [src].  [defines] seeds
    object-like macros (as if by [-D]).  Raises {!Srcloc.Error} on
    malformed directives, unbalanced conditionals, or macro expansion
    that produces more than a fixed 4 MiB of text over the whole file
    (counted at every nesting level, so an exponential chain of macros
    fails fast instead of hanging). *)
