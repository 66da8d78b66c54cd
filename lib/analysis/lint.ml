(* Determinism lint: substring rules over comment- and string-stripped
   OCaml source, with reasoned per-line suppressions. See lint.mli. *)

type finding = {
  f_file : string;
  f_line : int;
  f_rule : string;
  f_text : string;
  f_message : string;
}

type rule = {
  r_id : string;
  r_patterns : string list;
  r_message : string;
  r_exempt : string list;
  r_exempt_dirs : string list;
}

(* Patterns are assembled by concatenation so that this file (and its
   test fixtures built the same way) never matches itself. *)
let p a b = a ^ b

let rules =
  [
    {
      r_id = "hashtbl-iter";
      r_patterns = [ p "Hashtbl." "iter"; p "Hashtbl." "fold" ];
      r_message =
        "Hashtbl iteration order depends on hash-table internals; \
         collect and sort, or iterate a deterministic structure";
      r_exempt = [];
      r_exempt_dirs = [];
    };
    {
      r_id = "poly-compare";
      r_patterns =
        [
          p "sort " "compare";
          p "sort_uniq " "compare";
          p "Stdlib." "compare";
          p "Hashtbl." "hash";
          p "-> " "compare ";
        ];
      r_message =
        "polymorphic compare/hash can diverge across value layouts; \
         use a typed comparison (Int.compare, String.compare, ...)";
      r_exempt = [];
      r_exempt_dirs = [];
    };
    {
      r_id = "random";
      r_patterns = [ p "Random" "." ];
      r_message =
        "the global Random state breaks seed-determinism; draw from \
         the stack's seeded Dpu_engine.Rng instead";
      r_exempt = [ "engine/rng.ml" ];
      r_exempt_dirs = [];
    };
    {
      r_id = "wall-clock";
      r_patterns =
        [ p "Unix." "gettimeofday"; p "Unix." "time"; p "Sys." "time" ];
      r_message =
        "wall-clock reads in simulation code break bit-identical \
         sweeps; virtual time comes from Sim.now";
      r_exempt = [];
      (* the live backend is *defined* by wall-clock time *)
      r_exempt_dirs = [ "lib/live/" ];
    };
    {
      r_id = "marshal";
      r_patterns = [ p "Marshal" "." ];
      r_message =
        "Marshal is layout-sensitive and unsafe on closures; confine \
         it to the Sweep worker wire protocol";
      r_exempt = [ "runtime/sweep.ml" ];
      r_exempt_dirs = [];
    };
    {
      r_id = "unsafe-bytes";
      r_patterns =
        [
          p "Bytes." "unsafe_get";
          p "Bytes." "unsafe_set";
          p "Bytes." "unsafe_to_string";
          p "Bytes." "unsafe_of_string";
          p "String." "unsafe_get";
        ];
      r_message =
        "unchecked byte access trades memory safety for speed; the \
         zero-copy wire path must confine it to Wire with a documented \
         lifetime/aliasing rule";
      r_exempt = [];
      r_exempt_dirs = [];
    };
    {
      r_id = "spec-opaque";
      r_patterns = [ p "Spec." "opaque" ];
      r_message =
        "an opaque behavioural spec hides every in-flight shape from \
         the safe-update checker; declare a real Spec.make, or keep \
         the opacity behind a reasoned allow";
      r_exempt = [];
      r_exempt_dirs = [];
    };
    {
      r_id = "unix-io";
      r_patterns =
        [
          p "Unix." "socket";
          p "Unix." "bind";
          p "Unix." "connect";
          p "Unix." "sendto";
          p "Unix." "recvfrom";
          p "Unix." "select";
        ];
      r_message =
        "real sockets are non-deterministic; socket IO belongs to the \
         live runtime backend (lib/live) only";
      r_exempt = [];
      r_exempt_dirs = [ "lib/live/" ];
    };
  ]

(* --- comment / string stripping -------------------------------------- *)

(* Replace the contents of comments and string literals with spaces,
   preserving newlines so line numbers survive. Handles nested (* *)
   comments, string literals inside comments (OCaml lexes them), escape
   sequences, and char literals such as '"' or '\''. *)
let strip src =
  let n = String.length src in
  let buf = Buffer.create n in
  let blank c = Buffer.add_char buf (if c = '\n' then '\n' else ' ') in
  (* i = position of next char to consume *)
  let rec code i =
    if i >= n then ()
    else
      let c = src.[i] in
      if c = '(' && i + 1 < n && src.[i + 1] = '*' then begin
        blank '(';
        blank '*';
        comment 1 (i + 2)
      end
      else if c = '"' then begin
        blank '"';
        string (i + 1)
      end
      else if c = '\'' && i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\''
      then begin
        (* simple char literal, e.g. '"' or '(' *)
        Buffer.add_char buf '\'';
        blank src.[i + 1];
        Buffer.add_char buf '\'';
        code (i + 3)
      end
      else if c = '\'' && i + 3 < n && src.[i + 1] = '\\' && src.[i + 3] = '\''
      then begin
        (* escaped char literal, e.g. '\n' or '\'' *)
        Buffer.add_char buf '\'';
        blank '\\';
        blank src.[i + 2];
        Buffer.add_char buf '\'';
        code (i + 4)
      end
      else begin
        Buffer.add_char buf c;
        code (i + 1)
      end
  and comment depth i =
    if i >= n then ()
    else
      let c = src.[i] in
      if c = '(' && i + 1 < n && src.[i + 1] = '*' then begin
        blank '(';
        blank '*';
        comment (depth + 1) (i + 2)
      end
      else if c = '*' && i + 1 < n && src.[i + 1] = ')' then begin
        blank '*';
        blank ')';
        if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
      end
      else if c = '"' then begin
        blank '"';
        comment_string depth (i + 1)
      end
      else begin
        blank c;
        comment depth (i + 1)
      end
  and comment_string depth i =
    if i >= n then ()
    else
      let c = src.[i] in
      if c = '\\' && i + 1 < n then begin
        blank '\\';
        blank src.[i + 1];
        comment_string depth (i + 2)
      end
      else if c = '"' then begin
        blank '"';
        comment depth (i + 1)
      end
      else begin
        blank c;
        comment_string depth (i + 1)
      end
  and string i =
    if i >= n then ()
    else
      let c = src.[i] in
      if c = '\\' && i + 1 < n then begin
        blank '\\';
        blank src.[i + 1];
        string (i + 2)
      end
      else if c = '"' then begin
        Buffer.add_char buf '"';
        code (i + 1)
      end
      else begin
        blank c;
        string (i + 1)
      end
  in
  code 0;
  Buffer.contents buf

(* --- suppressions ----------------------------------------------------- *)

let is_ident = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Substring match, but when the pattern ends in an identifier
   character the match must end at a word boundary — so a pattern like
   "sort compare" does not fire on [sort compare_cycles]. *)
let contains ~sub s =
  let ls = String.length sub and ln = String.length s in
  let boundary i =
    (not (is_ident sub.[ls - 1])) || i + ls >= ln || not (is_ident s.[i + ls])
  in
  let rec go i =
    i + ls <= ln && ((String.sub s i ls = sub && boundary i) || go (i + 1))
  in
  ls > 0 && go 0

let suppression_marker = p "dpu-lint: " "allow"

(* A raw line suppresses [rule] iff it contains
   "dpu-lint: allow <rule>" followed by a non-empty reason (after
   stripping dashes, em-dashes, colons and the comment closer). *)
let suppresses ~rule raw =
  match String.index_opt raw 'd' with
  | None -> false
  | Some _ -> (
      let marker = suppression_marker ^ " " ^ rule in
      let lm = String.length marker and ln = String.length raw in
      let rec find i =
        if i + lm > ln then None
        else if String.sub raw i lm = marker then Some (i + lm)
        else find (i + 1)
      in
      match find 0 with
      | None -> false
      | Some after ->
          (* the rule id must end here, not be a prefix of a longer id *)
          let boundary =
            after >= ln
            ||
            match raw.[after] with
            | 'a' .. 'z' | '0' .. '9' | '-' -> false
            | _ -> true
          in
          if not boundary then false
          else
            (* demand a reason: strip separators and the comment
               closer, require residue *)
            let rest = String.sub raw after (ln - after) in
            let cleaned = Buffer.create 16 in
            String.iter
              (fun c ->
                match c with
                | ' ' | '\t' | '-' | ':' | '*' | ')' | '(' -> ()
                | c -> Buffer.add_char cleaned c)
              rest;
            (* an em-dash is multi-byte; any non-ASCII separator bytes
               also land in [cleaned], so require a letter or digit *)
            String.exists
              (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
              (Buffer.contents cleaned))

(* --- scanning --------------------------------------------------------- *)

let split_lines s = Array.of_list (String.split_on_char '\n' s)

let normalize_path f =
  String.map (fun c -> if c = '\\' then '/' else c) f

(* Plain substring search (no word-boundary logic): directory
   exemptions match path segments like "lib/live/". *)
let path_contains ~sub s =
  let ls = String.length sub and ln = String.length s in
  let rec go i = i + ls <= ln && (String.sub s i ls = sub || go (i + 1)) in
  ls > 0 && go 0

let exempt ~file r =
  let f = normalize_path file in
  List.exists (fun suffix -> String.ends_with ~suffix f) r.r_exempt
  || List.exists (fun dir -> path_contains ~sub:dir f) r.r_exempt_dirs

(* --- structural pass: registration sites must declare a spec --------- *)

(* A [Registry.register] call must pass [~spec] somewhere in the call
   site — substring rules cannot express "A without B nearby", so this
   runs as its own pass. The window is generous: a registration call
   spans a handful of lines of labelled arguments. *)
let registry_spec_rule = p "registry-" "spec"
let registry_spec_window = 12

let registry_spec_message =
  "every registration site must declare the protocol's behavioural \
   contract: pass ~spec (Spec.opaque, under a reasoned allow, if it \
   is truly unspecifiable)"

let scan_registry_spec ~file ~stripped ~raw findings =
  let register_call = p "Registry." "register" in
  let spec_arg = p "~sp" "ec" in
  Array.iteri
    (fun idx line ->
      if contains ~sub:register_call line then begin
        let last =
          min (Array.length stripped - 1) (idx + registry_spec_window)
        in
        let has_spec = ref false in
        for j = idx to last do
          if contains ~sub:spec_arg stripped.(j) then has_spec := true
        done;
        let suppressed =
          (idx < Array.length raw
          && suppresses ~rule:registry_spec_rule raw.(idx))
          || (idx > 0 && suppresses ~rule:registry_spec_rule raw.(idx - 1))
        in
        if (not !has_spec) && not suppressed then
          findings :=
            {
              f_file = file;
              f_line = idx + 1;
              f_rule = registry_spec_rule;
              f_text = String.trim raw.(idx);
              f_message = registry_spec_message;
            }
            :: !findings
      end)
    stripped

let scan_source ~file content =
  let stripped = split_lines (strip content) in
  let raw = split_lines content in
  let findings = ref [] in
  scan_registry_spec ~file ~stripped ~raw findings;
  List.iter
    (fun r ->
      if not (exempt ~file r) then
        Array.iteri
          (fun idx line ->
            if List.exists (fun pat -> contains ~sub:pat line) r.r_patterns
            then
              let suppressed =
                (idx < Array.length raw && suppresses ~rule:r.r_id raw.(idx))
                || (idx > 0 && suppresses ~rule:r.r_id raw.(idx - 1))
              in
              if not suppressed then
                findings :=
                  {
                    f_file = file;
                    f_line = idx + 1;
                    f_rule = r.r_id;
                    f_text = String.trim raw.(idx);
                    f_message = r.r_message;
                  }
                  :: !findings)
          stripped)
    rules;
  List.sort
    (fun a b ->
      match Int.compare a.f_line b.f_line with
      | 0 -> String.compare a.f_rule b.f_rule
      | c -> c)
    (List.rev !findings)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan_file path = scan_source ~file:path (read_file path)

let rec ml_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> ml_files (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let scan_paths paths =
  paths
  |> List.concat_map ml_files
  |> List.sort_uniq String.compare
  |> List.concat_map scan_file

let pp_finding ppf f =
  Format.fprintf ppf "@[<v>%s:%d: [%s] %s@,    %s@]" f.f_file f.f_line f.f_rule
    f.f_message f.f_text

let to_json findings =
  let module J = Dpu_obs.Json in
  J.Obj
    [
      ("schema", J.Str "dpu.lint/1");
      ("ok", J.Bool (match findings with [] -> true | _ -> false));
      ("count", J.Int (List.length findings));
      ( "findings",
        J.List
          (List.map
             (fun f ->
               J.Obj
                 [
                   ("file", J.Str f.f_file);
                   ("line", J.Int f.f_line);
                   ("rule", J.Str f.f_rule);
                   ("text", J.Str f.f_text);
                   ("message", J.Str f.f_message);
                 ])
             findings) );
    ]
