/**
 * @file
 * ecdp-client — command-line client for a local ecdpd.
 *
 *   ecdp-client --port N submit [--client NAME] [--wait] FILE
 *   ecdp-client --port N status GRID
 *   ecdp-client --port N results GRID [--wait]
 *   ecdp-client --port N cell HEXKEY
 *   ecdp-client --port N metrics
 *   ecdp-client --port N health
 *   ecdp-client --port N shutdown
 *
 * FILE holds either a bare JSON array of cell objects (wrapped into a
 * submission body with --client/--wait) or a complete request body
 * object; "-" reads stdin. The response body is printed verbatim, so
 * the output is always machine-readable JSON. Exit status: 0 for a
 * 2xx response, 1 otherwise.
 */

#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "memsim/parse_number.hh"
#include "server/http_client.hh"
#include "stats/json.hh"

namespace
{

using namespace ecdp;

void
usage(std::ostream &os)
{
    os << "usage: ecdp-client --port N COMMAND [ARGS]\n"
          "  submit [--client NAME] [--wait] FILE   submit a grid "
          "(FILE: cells array or body object; - = stdin)\n"
          "  status GRID                            grid summary\n"
          "  results GRID [--wait]                  grid results "
          "(--wait blocks until complete)\n"
          "  cell HEXKEY                            raw stored stats "
          "for one cell\n"
          "  metrics                                daemon counters\n"
          "  health                                 liveness probe\n"
          "  shutdown                               stop the daemon\n";
}

std::string
readInput(const std::string &file)
{
    if (file == "-") {
        return std::string{std::istreambuf_iterator<char>(std::cin),
                           std::istreambuf_iterator<char>()};
    }
    std::ifstream in(file, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open " + file);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
}

int
finish(const server::HttpResponse &response)
{
    std::cout << response.body << '\n';
    return response.status / 100 == 2 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint16_t port = 0;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--port" && i + 1 < argc) {
            try {
                port = parseNumber<std::uint16_t>(arg, argv[++i], 1,
                                                  65535);
            } catch (const std::invalid_argument &e) {
                std::cerr << "error: " << e.what() << '\n';
                usage(std::cerr);
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else
            args.push_back(arg);
    }
    if (port == 0 || args.empty()) {
        usage(std::cerr);
        return 2;
    }

    const std::string command = args.front();
    args.erase(args.begin());
    try {
        server::HttpClient client(port);
        if (command == "submit") {
            std::string clientName = "ecdp-client";
            bool clientNamed = false;
            bool wait = false;
            std::string file;
            for (std::size_t i = 0; i < args.size(); ++i) {
                if (args[i] == "--client" && i + 1 < args.size()) {
                    clientName = args[++i];
                    clientNamed = true;
                } else if (args[i] == "--wait") {
                    wait = true;
                } else {
                    file = args[i];
                }
            }
            if (file.empty())
                throw std::runtime_error("submit needs a FILE");
            std::string text = readInput(file);
            JsonValue parsed = parseJson(text);
            std::string body;
            if (parsed.kind() == JsonValue::Kind::Array) {
                std::ostringstream os;
                os << "{\"client\":\"" << jsonEscape(clientName)
                   << "\",\"wait\":" << (wait ? "true" : "false")
                   << ",\"cells\":" << text << "}";
                body = os.str();
            } else {
                // A complete body object is sent as-is — but the
                // flags still apply: inject any field the body does
                // not already set (the body wins on conflict).
                body = text;
                auto inject = [&](const std::string &field,
                                  const std::string &value) {
                    if (parsed.find(field))
                        return;
                    std::size_t at = body.find('{') + 1;
                    std::size_t next =
                        body.find_first_not_of(" \t\r\n", at);
                    const bool empty =
                        next != std::string::npos && body[next] == '}';
                    body.insert(at, "\"" + field + "\":" + value +
                                        (empty ? "" : ","));
                };
                if (wait)
                    inject("wait", "true");
                if (clientNamed) {
                    inject("client",
                           "\"" + jsonEscape(clientName) + "\"");
                }
            }
            return finish(client.post("/v1/grids", body));
        }
        if (command == "status") {
            if (args.empty())
                throw std::runtime_error("status needs a GRID id");
            return finish(client.get("/v1/grids/" + args[0]));
        }
        if (command == "results") {
            if (args.empty())
                throw std::runtime_error("results needs a GRID id");
            std::string target = "/v1/grids/" + args[0] + "/results";
            if (args.size() > 1 && args[1] == "--wait")
                target += "?wait=1";
            return finish(client.get(target));
        }
        if (command == "cell") {
            if (args.empty())
                throw std::runtime_error("cell needs a HEXKEY");
            return finish(client.get("/v1/cells/" + args[0]));
        }
        if (command == "metrics")
            return finish(client.get("/metrics"));
        if (command == "health")
            return finish(client.get("/healthz"));
        if (command == "shutdown")
            return finish(client.post("/v1/shutdown", "{}"));
        std::cerr << "error: unknown command " << command << '\n';
        usage(std::cerr);
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
