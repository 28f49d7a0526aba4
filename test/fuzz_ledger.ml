(* @fuzz-ledger driver: reruns every known seed-dependent QCheck failure
   at its seed and says whether it still fails.

     fuzz_ledger fuzz_ledger.txt

   The ledger has one entry per line, four fields separated by " | ":
   the suite (the test executable's name, without [.exe]), the
   property's name as the suite lists it, the QCheck seed and the
   ROADMAP item that owns the defect. Blank lines and lines starting
   with '#' are skipped.

   For each entry the suite's executable, next to this one, lists its
   tests; the property is found by name and run alone, with
   QCHECK_SEED set to the entry's seed. A zero exit prints [mended],
   any other [still failing]. The driver changes no test, bound or
   seed, and exits 1 only on a malformed ledger or an unknown suite or
   property, never on a verdict. *)

type entry = { suite : string; property : string; seed : string; item : string }

let parse_line lineno line =
  match List.map String.trim (String.split_on_char '|' line) with
  | [ suite; property; seed; item ]
    when suite <> "" && property <> "" && int_of_string_opt seed <> None ->
      { suite; property; seed; item }
  | _ ->
      Printf.eprintf "fuzz_ledger: line %d: expected suite | property | seed | item\n"
        lineno;
      exit 1

let read_ledger path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (i, l) -> parse_line i l)

let exe suite = Filename.concat Filename.current_dir_name (suite ^ ".exe")

(* The exit status of [argv], its output discarded. *)
let run ?(env = Unix.environment ()) argv =
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process_env argv.(0) argv env Unix.stdin null null in
  Unix.close null;
  match snd (Unix.waitpid [] pid) with Unix.WEXITED n -> n | _ -> -1

(* [(group, index, name)] per line of the suite's [list] output, e.g.
   "differential   8   fuzz: activity analysis is sound." *)
let tests suite =
  let ic = Unix.open_process_args_in (exe suite) [| exe suite; "list" |] in
  let lines = In_channel.input_lines ic in
  ignore (Unix.close_process_in ic);
  List.filter_map
    (fun l ->
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | group :: index :: (_ :: _ as words) when int_of_string_opt index <> None
        ->
          let name = String.concat " " words in
          let name =
            if String.ends_with ~suffix:"." name then
              String.sub name 0 (String.length name - 1)
            else name
          in
          Some (group, index, name)
      | _ -> None)
    lines

let verdict e =
  if not (Sys.file_exists (exe e.suite)) then begin
    Printf.eprintf "fuzz_ledger: no suite %s\n" e.suite;
    exit 1
  end;
  match List.find_opt (fun (_, _, n) -> n = e.property) (tests e.suite) with
  | None ->
      Printf.eprintf "fuzz_ledger: %s has no property %S\n" e.suite e.property;
      exit 1
  | Some (group, index, _) ->
      let env =
        Array.append
          [| "QCHECK_SEED=" ^ e.seed |]
          (Array.of_list
             (List.filter
                (fun v -> not (String.starts_with ~prefix:"QCHECK_SEED=" v))
                (Array.to_list (Unix.environment ()))))
      in
      if run ~env [| exe e.suite; "test"; "^" ^ group ^ "$"; index |] = 0 then
        "mended"
      else "still failing"

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "fuzz_ledger.txt" in
  let entries = read_ledger path in
  let still = ref 0 in
  List.iter
    (fun e ->
      let v = verdict e in
      if v = "still failing" then incr still;
      Printf.printf "%s seed %s %S (item %s): %s\n%!" e.suite e.seed e.property
        e.item v)
    entries;
  Printf.printf "fuzz ledger: %d entries, %d still failing, %d mended\n"
    (List.length entries) !still (List.length entries - !still)
